"""Minimal XML reader producing XmlTerm trees.

Deliberately a small hand-written scanner rather than a full XML stack:
the supported subset is elements, attributes, character data, comments,
and the five predefined entity references.  Prefixed names like
ruleml:imp stay opaque strings; there is no namespace resolution and no
DTD handling.
"""

from __future__ import annotations

import re

from .errors import XmlParseError
from .kernel import SourceSpan

TYPE_CHECKING = False  # typing is imported by type checkers alone
if TYPE_CHECKING:
    from typing import Optional

_ENTITIES = {"lt": "<", "gt": ">", "amp": "&", "quot": '"', "apos": "'"}


class Text:
    """Character data.  Mutable, so unhashable; equal by value."""

    __slots__ = ("value",)

    def __init__(self, value: str):
        self.value = value

    def __eq__(self, other) -> bool:
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self.value == other.value

    __hash__ = None

    def __repr__(self) -> str:
        return f"Text(value={self.value!r})"


class XmlTerm:
    """An element: tag, ordered attributes, ordered children.  Mutable, so
    unhashable; equal when tag, attributes and children are."""

    __slots__ = ("tag", "attributes", "children")

    def __init__(
        self,
        tag: str,
        attributes: Optional[dict[str, str]] = None,
        children: Optional[list] = None,
    ):
        self.tag = tag
        self.attributes = {} if attributes is None else attributes
        self.children = [] if children is None else children

    def __eq__(self, other) -> bool:
        if other.__class__ is not self.__class__:
            return NotImplemented
        return (self.tag, self.attributes, self.children) == (
            other.tag,
            other.attributes,
            other.children,
        )

    __hash__ = None

    def __repr__(self) -> str:
        return (
            f"XmlTerm(tag={self.tag!r}, attributes={self.attributes!r}, "
            f"children={self.children!r})"
        )

    def child_elements(self) -> list["XmlTerm"]:
        return [c for c in self.children if isinstance(c, XmlTerm)]

    def text(self) -> str:
        """Concatenated character data of the direct children."""
        return "".join(c.value for c in self.children if isinstance(c, Text))


def parse_xml(source: str, filename: str = "<xml>") -> XmlTerm:
    """Parse one document; returns the single root element."""
    return _XmlScanner(source, filename).document()


def xml_to_text(node: XmlTerm) -> str:
    """Serialize back to markup; parse_xml(xml_to_text(x)) == x.  Walks
    with an explicit stack of pending items (elements, text, and the
    closing tags of open elements), so depth is not bounded by the
    recursion limit."""
    parts: list[str] = []
    stack: list = [node]
    while stack:
        item = stack.pop()
        if isinstance(item, str):
            parts.append(item)
        elif isinstance(item, Text):
            parts.append(_escape(item.value))
        else:
            parts.append(f"<{item.tag}")
            for k, v in item.attributes.items():
                parts.append(f' {k}="{_escape(v, attr=True)}"')
            if not item.children:
                parts.append("/>")
                continue
            parts.append(">")
            stack.append(f"</{item.tag}>")
            stack.extend(reversed(item.children))
    return "".join(parts)


def _escape(s: str, attr: bool = False) -> str:
    s = s.replace("&", "&amp;").replace("<", "&lt;").replace(">", "&gt;")
    if attr:
        s = s.replace('"', "&quot;")
    return s


_NAME = r"[A-Za-z_][A-Za-z0-9_.:\-]*"
# compiled on first use, so commands that read no XML skip them, and the
# part patterns only for a start tag the whole-tag pattern does not read
_PATTERNS = None
_PART_PATTERNS = None


def _patterns() -> tuple[re.Pattern, ...]:
    """The scanner's anchored patterns for well-formed markup."""
    global _PATTERNS
    if _PATTERNS is None:
        _PATTERNS = (
            # (1) whitespace, then a start tag: (2) name, (3) its
            # attributes, each after whitespace, with a quoted value holding
            # no '<' or '&', and (4) `>` or `/>`.  No name can end early, as
            # a name character follows, so a match reads what the part
            # patterns would
            re.compile(
                rf"""(\s*)<({_NAME})((?:\s+{_NAME}\s*=\s*(?:"[^"<&]*"|'[^'<&]*'))*)\s*(/?>)"""
            ),
            # one attribute of group 3 above: (1) name, (2) or (3) value
            re.compile(rf"""\s+({_NAME})\s*=\s*(?:"([^"]*)"|'([^']*)')"""),
            # (1) character data up to the next '<', then (2) `</` with (3)
            # a name and (4) `>`, or (5) the start, not passed, of a comment,
            # processing instruction or DTD declaration
            re.compile(rf"([^<]*)(?:(</)(?:({_NAME})\s*(>)?)?|(?=(<[!?])))?"),
            # whitespace, comments and processing instructions
            re.compile(r"\s*(?:(?:<!--.*?-->|<\?.*?\?>)\s*)*", re.DOTALL),
        )
    return _PATTERNS


def _part_patterns() -> tuple[re.Pattern, ...]:
    """A start tag's patterns part by part.  Each always matches; the
    groups that took part say how far the markup is well formed, and the
    match ends where the first missing part should start."""
    global _PART_PATTERNS
    if _PART_PATTERNS is None:
        _PART_PATTERNS = (
            # `<tag` of a start tag, the '<' known present
            re.compile(f"<({_NAME})?"),
            # one attribute, or the tag's end: (1) `>` or `/>`, (2) name,
            # (3) `=`, (4) or (5) value inside " or ', (6) closing quote
            re.compile(
                rf"""\s*(?:(/?>)|({_NAME})\s*(?:(=\s*)(?:"([^"<]*)|'([^'<]*))?(["']?))?)?"""
            ),
        )
    return _PART_PATTERNS


class _XmlScanner:
    """One anchored match per start tag with all its attributes (and the
    whitespace before it, where that is all the text there), and one per
    run of character data with the closing tag after it.  A start tag
    that match does not read (a value with an entity or a '<', no space
    between attributes, a repeated name, or an error) is read again a
    part at a time: the name, each attribute and the tag's end, each in a
    match of its own, and a failed part is reported where its match
    stopped.  So well-formed markup costs at most two matches an element,
    and every error keeps its message and offset."""

    def __init__(self, source: str, filename: str):
        self.src = source
        self.pos = 0
        self.filename = filename
        self.tag, self.attrs, self.content_run, self.misc = _patterns()

    def fail(self, msg: str, at: int):
        """Raise msg at offset at."""
        raise XmlParseError(msg, SourceSpan.at(self.filename, self.src, at))

    def skip_markup(self) -> bool:
        """Skip the comment or processing instruction at the cursor; False
        when none starts here.  A DTD declaration is an error."""
        src, pos = self.src, self.pos
        if src.startswith("<!--", pos):
            end = src.find("-->", pos + 4)
            if end < 0:
                self.fail("unterminated comment", pos)
            self.pos = end + 3
        elif src.startswith("<?", pos):
            end = src.find("?>", pos + 2)
            if end < 0:
                self.fail("unterminated processing instruction", pos)
            self.pos = end + 2
        elif src.startswith("<!", pos):
            self.fail("DTD declarations are not supported", pos)
        else:
            return False
        return True

    def skip_misc(self):
        """Skip whitespace, comments, and processing instructions; markup
        left at the cursor is unterminated or a DTD, and raises."""
        self.pos = self.misc.match(self.src, self.pos).end()
        self.skip_markup()

    def decode(self, at: int, end: int) -> str:
        """src[at:end] with its entity references replaced."""
        src = self.src
        out = []
        amp = src.find("&", at, end)
        while amp >= 0:
            semi = src.find(";", amp + 1)
            if semi < 0 or semi - amp > 7:
                self.fail("malformed entity reference", amp + 1)
            ref = src[amp + 1 : semi]
            if ref not in _ENTITIES:
                self.fail(f"unsupported entity &{ref};", amp + 1)
            out += (src[at:amp], _ENTITIES[ref])
            at = semi + 1
            amp = src.find("&", at, end)
        out.append(src[at:end])
        return "".join(out)

    # -- grammar ----------------------------------------------------------

    def document(self) -> XmlTerm:
        self.skip_misc()
        if not self.src.startswith("<", self.pos):
            self.fail("expected a root element", self.pos)
        root = self.element()
        self.skip_misc()
        if self.pos < len(self.src):
            self.fail("content after the root element", self.pos)
        return root

    def element(self) -> XmlTerm:
        """One element with everything inside it, the cursor at its '<'.
        Open elements live on an explicit stack, so nesting depth is not
        bounded by the recursion limit."""
        root = None
        stack: list[XmlTerm] = []
        while True:
            read = self.whole_tag(stack)
            if read is None:
                if stack:
                    if not self.content(stack[-1]):  # it read a closing tag
                        stack.pop()
                        if not stack:
                            return root
                        continue
                    read = self.whole_tag(stack)  # at the next start tag
                if read is None:
                    read = self.start_tag()
            child, has_content = read
            if stack:
                stack[-1].children.append(child)
            else:
                root = child
            if has_content:
                stack.append(child)
            elif not stack:  # an empty root
                return root

    def whole_tag(self, stack: list[XmlTerm]) -> Optional[tuple[XmlTerm, bool]]:
        """The start tag at the cursor, after any whitespace, read in one
        match, the whitespace going to the open element stack[-1] as Text;
        True when content follows.  None, the cursor unmoved, where that
        match does not read them."""
        src = self.src
        m = self.tag.match(src, self.pos)
        if m is None:
            return None
        found = self.attrs.findall(src, m.start(3), m.end(3))
        attributes = {key: double or single for key, double, single in found}
        if len(attributes) < len(found):  # a name repeats
            return None
        if m[1]:
            stack[-1].children.append(Text(m[1]))
        self.pos = m.end()
        return XmlTerm(m[2], attributes, []), m[4] == ">"

    def start_tag(self) -> tuple[XmlTerm, bool]:
        """`<tag attr="v"...>` or `<tag .../>` at the cursor, read a part
        at a time; True when content follows."""
        src = self.src
        start, attr = _part_patterns()
        match = attr.match
        m = start.match(src, self.pos)
        tag = m[1]
        if tag is None:
            self.fail("expected a name", m.end())
        attributes: dict[str, str] = {}
        while True:
            m = match(src, m.end())
            end, key, _, double, single, closed = m.groups()
            if end:
                self.pos = m.end()
                return XmlTerm(tag, attributes, []), end == ">"
            if not closed or key in attributes:
                self.attribute_error(m, attributes)
            value = double if double is not None else single
            if "&" in value:
                group = 4 if double is not None else 5
                value = self.decode(m.start(group), m.end(group))
            attributes[key] = value

    def attribute_error(self, m: re.Match, attributes: dict[str, str]):
        """Raise the first error of the attribute match m stopped in, or
        the duplicate it names."""
        at = m.end()
        key, eq, double, single = m[2], m[3], m[4], m[5]
        if key is None:
            self.fail("expected a name", at)
        if eq is None:
            self.fail("expected '='", at)
        if key in attributes:
            self.fail(f"duplicate attribute {key!r}", m.end(3))
        if double is None and single is None:
            self.fail("expected a quoted attribute value", at)
        group = 4 if double is not None else 5
        self.decode(m.start(group), m.end(group))  # an entity error comes first
        if self.src.startswith("<", at):
            self.fail("'<' inside attribute value", at)
        self.fail("unterminated attribute value", at)

    def content(self, node: XmlTerm) -> bool:
        """Read node's character data, comments and processing instructions
        up to its next child element (True, left at its '<') or through its
        closing tag (False).  Character data split by comments or
        processing instructions is one Text."""
        src, match = self.src, self.content_run.match
        text: list[str] = []
        while True:
            m = match(src, self.pos)
            run, closing, name, gt, markup = m.groups()
            if run:
                text.append(self.decode(m.start(1), m.end(1)) if "&" in run else run)
            self.pos = m.end()
            if markup:
                self.skip_markup()
                continue
            if text:
                node.children.append(Text("".join(text)))
            if closing:
                if name is None:
                    self.fail("expected a name", self.pos)
                if name != node.tag:
                    self.fail(
                        f"mismatched closing tag </{name}> for <{node.tag}>", m.end(3)
                    )
                if gt is None:
                    self.fail("expected '>'", self.pos)
                return False
            if self.pos == len(src):
                self.fail(f"unterminated element <{node.tag}>", self.pos)
            return True
