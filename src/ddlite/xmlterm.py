"""Minimal XML reader producing XmlTerm trees.

Deliberately a small hand-written scanner rather than a full XML stack:
the supported subset is elements, attributes, character data, comments,
and the five predefined entity references.  Prefixed names like
ruleml:imp stay opaque strings; there is no namespace resolution and no
DTD handling.
"""

from __future__ import annotations

import re
from typing import Optional

from .errors import XmlParseError
from .kernel import SourceSpan, line_col

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


# each matches at any position, the empty string at least
_NAME = re.compile(r"(?:[A-Za-z_][A-Za-z0-9_.:\-]*)?")
_SPACE = re.compile(r"\s*")
_CHARS = re.compile(r"[^<&]*")  # character data up to markup or an entity
_ATTR_CHARS = {q: re.compile(f"[^{q}<&]*") for q in "'\""}


class _XmlScanner:
    def __init__(self, source: str, filename: str):
        self.src = source
        self.pos = 0
        self.filename = filename

    # -- helpers ----------------------------------------------------------

    def _span(self) -> SourceSpan:
        return SourceSpan(self.filename, *line_col(self.src, self.pos))

    def fail(self, msg: str):
        raise XmlParseError(msg, self._span())

    def peek(self, k: int = 1) -> str:
        return self.src[self.pos : self.pos + k]

    def run(self, pattern: re.Pattern) -> str:
        """Move past the match of pattern at the cursor and return it."""
        m = pattern.match(self.src, self.pos)
        self.pos = m.end()
        return m[0]

    def skip_markup(self) -> bool:
        """Skip the comment or processing instruction at the cursor; False
        when none starts here.  A DTD declaration is an error."""
        if self.peek(4) == "<!--":
            end = self.src.find("-->", self.pos + 4)
            if end < 0:
                self.fail("unterminated comment")
            self.pos = end + 3
        elif self.peek(2) == "<?":
            end = self.src.find("?>", self.pos + 2)
            if end < 0:
                self.fail("unterminated processing instruction")
            self.pos = end + 2
        elif self.peek(2) == "<!":
            self.fail("DTD declarations are not supported")
        else:
            return False
        return True

    def skip_space(self):
        self.run(_SPACE)

    def skip_misc(self):
        """Skip whitespace, comments, and processing instructions."""
        self.skip_space()
        while self.skip_markup():
            self.skip_space()

    def name(self) -> str:
        name = self.run(_NAME)
        if not name:
            self.fail("expected a name")
        return name

    def expect(self, text: str):
        if self.peek(len(text)) != text:
            self.fail(f"expected {text!r}")
        self.pos += len(text)

    def entity(self) -> str:
        self.expect("&")
        end = self.src.find(";", self.pos)
        if end < 0 or end - self.pos > 6:
            self.fail("malformed entity reference")
        ref = self.src[self.pos : end]
        if ref not in _ENTITIES:
            self.fail(f"unsupported entity &{ref};")
        self.pos = end + 1
        return _ENTITIES[ref]

    # -- grammar ----------------------------------------------------------

    def document(self) -> XmlTerm:
        self.skip_misc()
        if self.peek() != "<":
            self.fail("expected a root element")
        root = self.element()
        self.skip_misc()
        if self.peek():
            self.fail("content after the root element")
        return root

    def element(self) -> XmlTerm:
        """One element with everything inside it.  Open elements live on an
        explicit stack, so nesting depth is not bounded by the recursion
        limit."""
        root, has_content = self.start_tag()
        stack = [root] if has_content else []
        while stack:
            if self.content(stack[-1]):
                child, has_content = self.start_tag()
                stack[-1].children.append(child)
                if has_content:
                    stack.append(child)
            else:
                stack.pop()
        return root

    def start_tag(self) -> tuple[XmlTerm, bool]:
        """`<tag attr="v"...>` or `<tag .../>`; True when content follows."""
        self.expect("<")
        tag = self.name()
        attributes: dict[str, str] = {}
        while True:
            self.skip_space()
            if self.peek(2) == "/>":
                self.pos += 2
                return XmlTerm(tag, attributes, []), False
            if self.peek() == ">":
                self.pos += 1
                return XmlTerm(tag, attributes, []), True
            key = self.name()
            self.skip_space()
            self.expect("=")
            self.skip_space()
            if key in attributes:
                self.fail(f"duplicate attribute {key!r}")
            attributes[key] = self.attr_value()

    def attr_value(self) -> str:
        quote = self.peek()
        if quote not in ("'", '"'):
            self.fail("expected a quoted attribute value")
        self.pos += 1
        out = []
        while True:
            out.append(self.run(_ATTR_CHARS[quote]))
            c = self.peek()
            if c == quote:
                self.pos += 1
                return "".join(out)
            if c == "&":
                out.append(self.entity())
            elif c == "<":
                self.fail("'<' inside attribute value")
            else:
                self.fail("unterminated attribute value")

    def content(self, node: XmlTerm) -> bool:
        """Read node's character data, comments and processing instructions
        up to its next child element (True, left at its '<') or through its
        closing tag (False)."""
        tag = node.tag
        buf: list[str] = []

        def flush():
            if buf:
                node.children.append(Text("".join(buf)))
                buf.clear()

        while True:
            text = self.run(_CHARS)
            if text:
                buf.append(text)
            c = self.peek()
            if c == "<":
                if self.peek(2) == "</":
                    flush()
                    self.pos += 2
                    closing = self.name()
                    if closing != tag:
                        self.fail(f"mismatched closing tag </{closing}> for <{tag}>")
                    self.skip_space()
                    self.expect(">")
                    return False
                if self.skip_markup():
                    continue
                flush()
                return True
            elif c == "&":
                buf.append(self.entity())
            else:
                self.fail(f"unterminated element <{tag}>")
