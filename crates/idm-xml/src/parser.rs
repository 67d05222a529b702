//! A from-scratch, dependency-free XML 1.0 parser.
//!
//! Produces the core XML Information Set items used by Section 3.3 of
//! the paper: the document, elements with attributes, and character data.
//! Comments, processing instructions, the XML declaration and DOCTYPE
//! internal subsets are consumed and discarded; CDATA sections become
//! character data; entity and character references are decoded.

use std::fmt;

/// An XML parse error with byte offset context.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct XmlError {
    /// Byte offset in the input where the error was detected.
    pub offset: usize,
    /// Description of the problem.
    pub message: String,
}

impl fmt::Display for XmlError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "XML error at byte {}: {}", self.offset, self.message)
    }
}

impl std::error::Error for XmlError {}

/// An element information item.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct XmlElement {
    /// Element name `N_E`.
    pub name: String,
    /// Attributes in document order: the element's `(W_E, T_E)`.
    pub attributes: Vec<(String, String)>,
    /// Ordered children (elements and text).
    pub children: Vec<XmlNode>,
}

impl XmlElement {
    /// A new element with no attributes or children.
    pub fn new(name: impl Into<String>) -> Self {
        XmlElement {
            name: name.into(),
            attributes: Vec::new(),
            children: Vec::new(),
        }
    }

    /// The value of the first attribute with the given name.
    pub fn attr(&self, name: &str) -> Option<&str> {
        self.attributes
            .iter()
            .find(|(n, _)| n == name)
            .map(|(_, v)| v.as_str())
    }

    /// Child elements (skipping text nodes).
    pub fn child_elements(&self) -> impl Iterator<Item = &XmlElement> {
        self.children.iter().filter_map(|c| match c {
            XmlNode::Element(e) => Some(e),
            XmlNode::Text(_) => None,
        })
    }

    /// The first child element with the given name.
    pub fn child_named(&self, name: &str) -> Option<&XmlElement> {
        self.child_elements().find(|e| e.name == name)
    }

    /// Concatenated text content of this element's direct text children.
    pub fn direct_text(&self) -> String {
        let mut out = String::new();
        for child in &self.children {
            if let XmlNode::Text(t) = child {
                out.push_str(t);
            }
        }
        out
    }

    /// Concatenated text content of the whole subtree.
    pub fn deep_text(&self) -> String {
        let mut out = String::new();
        self.collect_text(&mut out);
        out
    }

    fn collect_text(&self, out: &mut String) {
        for child in &self.children {
            match child {
                XmlNode::Text(t) => out.push_str(t),
                XmlNode::Element(e) => e.collect_text(out),
            }
        }
    }

    /// Total number of information items in the subtree (this element,
    /// descendant elements, and text nodes). This is exactly the number
    /// of resource views the iDM converter derives from the element.
    pub fn item_count(&self) -> usize {
        1 + self
            .children
            .iter()
            .map(|c| match c {
                XmlNode::Element(e) => e.item_count(),
                XmlNode::Text(_) => 1,
            })
            .sum::<usize>()
    }
}

/// A node: an element or character data.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum XmlNode {
    /// An element information item.
    Element(XmlElement),
    /// A character information item run.
    Text(String),
}

/// A document information item.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct XmlDocument {
    /// The root element.
    pub root: XmlElement,
}

impl XmlDocument {
    /// Total number of information items (document + subtree).
    pub fn item_count(&self) -> usize {
        1 + self.root.item_count()
    }
}

/// Parser configuration.
#[derive(Debug, Clone, Copy)]
pub struct ParseOptions {
    /// Drop text nodes that are entirely whitespace (the usual choice for
    /// data-oriented XML; pretty-printed documents otherwise drown the
    /// view graph in indentation nodes). Default: `true`.
    pub drop_whitespace_text: bool,
}

impl Default for ParseOptions {
    fn default() -> Self {
        ParseOptions {
            drop_whitespace_text: true,
        }
    }
}

/// Parses a document with default options.
pub fn parse(input: &str) -> Result<XmlDocument, XmlError> {
    parse_with(input, ParseOptions::default())
}

/// Parses a document with explicit options.
pub fn parse_with(input: &str, options: ParseOptions) -> Result<XmlDocument, XmlError> {
    let mut parser = Parser {
        bytes: input.as_bytes(),
        pos: 0,
        options,
    };
    parser.skip_prolog()?;
    let root = parser.parse_element()?;
    parser.skip_misc();
    if parser.pos != parser.bytes.len() {
        return Err(parser.error("content after the root element"));
    }
    Ok(XmlDocument { root })
}

struct Parser<'a> {
    bytes: &'a [u8],
    pos: usize,
    options: ParseOptions,
}

impl<'a> Parser<'a> {
    fn error(&self, message: impl Into<String>) -> XmlError {
        XmlError {
            offset: self.pos,
            message: message.into(),
        }
    }

    fn peek(&self) -> Option<u8> {
        self.bytes.get(self.pos).copied()
    }

    fn starts_with(&self, s: &str) -> bool {
        self.bytes[self.pos..].starts_with(s.as_bytes())
    }

    fn advance(&mut self, n: usize) {
        self.pos = (self.pos + n).min(self.bytes.len());
    }

    fn skip_whitespace(&mut self) {
        while matches!(self.peek(), Some(b' ' | b'\t' | b'\r' | b'\n')) {
            self.pos += 1;
        }
    }

    fn expect(&mut self, s: &str) -> Result<(), XmlError> {
        if self.starts_with(s) {
            self.advance(s.len());
            Ok(())
        } else {
            Err(self.error(format!("expected '{s}'")))
        }
    }

    fn skip_until(&mut self, end: &str) -> Result<(), XmlError> {
        match find_sub(&self.bytes[self.pos..], end.as_bytes()) {
            Some(i) => {
                self.pos += i + end.len();
                Ok(())
            }
            None => Err(self.error(format!("unterminated construct, expected '{end}'"))),
        }
    }

    /// Skips the XML declaration, comments, PIs, DOCTYPE and whitespace.
    fn skip_prolog(&mut self) -> Result<(), XmlError> {
        loop {
            self.skip_whitespace();
            if self.starts_with("<?") {
                self.skip_until("?>")?;
            } else if self.starts_with("<!--") {
                self.skip_until("-->")?;
            } else if self.starts_with("<!DOCTYPE") {
                self.skip_doctype()?;
            } else {
                return Ok(());
            }
        }
    }

    /// Skips comments/PIs/whitespace after the root element.
    fn skip_misc(&mut self) {
        loop {
            self.skip_whitespace();
            if self.starts_with("<?") {
                if self.skip_until("?>").is_err() {
                    return;
                }
            } else if self.starts_with("<!--") {
                if self.skip_until("-->").is_err() {
                    return;
                }
            } else {
                return;
            }
        }
    }

    fn skip_doctype(&mut self) -> Result<(), XmlError> {
        // <!DOCTYPE ... [ internal subset ] >
        self.expect("<!DOCTYPE")?;
        let mut depth = 1usize;
        while depth > 0 {
            match self.peek() {
                Some(b'<') => {
                    depth += 1;
                    self.pos += 1;
                }
                Some(b'>') => {
                    depth -= 1;
                    self.pos += 1;
                }
                Some(_) => self.pos += 1,
                None => return Err(self.error("unterminated DOCTYPE")),
            }
        }
        Ok(())
    }

    fn parse_name(&mut self) -> Result<String, XmlError> {
        let start = self.pos;
        while let Some(b) = self.peek() {
            let ok =
                b.is_ascii_alphanumeric() || matches!(b, b'_' | b'-' | b'.' | b':') || b >= 0x80;
            if !ok {
                break;
            }
            self.pos += 1;
        }
        if self.pos == start {
            return Err(self.error("expected a name"));
        }
        let name = &self.bytes[start..self.pos];
        let first = name[0];
        if first.is_ascii_digit() || first == b'-' || first == b'.' {
            return Err(XmlError {
                offset: start,
                message: "names must not start with a digit, '-' or '.'".into(),
            });
        }
        Ok(String::from_utf8_lossy(name).into_owned())
    }

    fn parse_element(&mut self) -> Result<XmlElement, XmlError> {
        self.expect("<")?;
        let name = self.parse_name()?;
        let mut element = XmlElement::new(name);

        // Attributes.
        loop {
            self.skip_whitespace();
            match self.peek() {
                Some(b'/') => {
                    self.expect("/>")?;
                    return Ok(element);
                }
                Some(b'>') => {
                    self.pos += 1;
                    break;
                }
                Some(_) => {
                    let attr_name = self.parse_name()?;
                    self.skip_whitespace();
                    self.expect("=")?;
                    self.skip_whitespace();
                    let value = self.parse_attr_value()?;
                    if element.attributes.iter().any(|(n, _)| *n == attr_name) {
                        return Err(self.error(format!("duplicate attribute '{attr_name}'")));
                    }
                    element.attributes.push((attr_name, value));
                }
                None => return Err(self.error("unterminated start tag")),
            }
        }

        // Content.
        loop {
            if self.starts_with("</") {
                self.advance(2);
                let end_name = self.parse_name()?;
                if end_name != element.name {
                    return Err(self.error(format!(
                        "mismatched end tag: expected </{}>, found </{end_name}>",
                        element.name
                    )));
                }
                self.skip_whitespace();
                self.expect(">")?;
                return Ok(element);
            } else if self.starts_with("<!--") {
                self.skip_until("-->")?;
            } else if self.starts_with("<![CDATA[") {
                self.advance("<![CDATA[".len());
                let rest = &self.bytes[self.pos..];
                let end = find_sub(rest, b"]]>")
                    .ok_or_else(|| self.error("unterminated CDATA section"))?;
                let text = String::from_utf8_lossy(&rest[..end]).into_owned();
                self.advance(end + 3);
                push_text(&mut element, text, self.options);
            } else if self.starts_with("<?") {
                self.skip_until("?>")?;
            } else if self.peek() == Some(b'<') {
                let child = self.parse_element()?;
                element.children.push(XmlNode::Element(child));
            } else if self.peek().is_some() {
                let text = self.parse_char_data()?;
                push_text(&mut element, text, self.options);
            } else {
                return Err(self.error(format!("unterminated element <{}>", element.name)));
            }
        }
    }

    fn parse_attr_value(&mut self) -> Result<String, XmlError> {
        let quote = match self.peek() {
            Some(q @ (b'"' | b'\'')) => q,
            _ => return Err(self.error("expected a quoted attribute value")),
        };
        self.pos += 1;
        let start = self.pos;
        while let Some(b) = self.peek() {
            if b == quote {
                let raw = String::from_utf8_lossy(&self.bytes[start..self.pos]).into_owned();
                self.pos += 1;
                return decode_entities(&raw).map_err(|m| XmlError {
                    offset: start,
                    message: m,
                });
            }
            if b == b'<' {
                return Err(self.error("'<' is not allowed in attribute values"));
            }
            self.pos += 1;
        }
        Err(self.error("unterminated attribute value"))
    }

    fn parse_char_data(&mut self) -> Result<String, XmlError> {
        let start = self.pos;
        while let Some(b) = self.peek() {
            if b == b'<' {
                break;
            }
            self.pos += 1;
        }
        let raw = String::from_utf8_lossy(&self.bytes[start..self.pos]).into_owned();
        decode_entities(&raw).map_err(|m| XmlError {
            offset: start,
            message: m,
        })
    }
}

fn push_text(element: &mut XmlElement, text: String, options: ParseOptions) {
    if options.drop_whitespace_text && text.trim().is_empty() {
        return;
    }
    // Merge adjacent character runs (e.g. text–CDATA–text) into one
    // character information item, as the infoset prescribes.
    if let Some(XmlNode::Text(prev)) = element.children.last_mut() {
        prev.push_str(&text);
    } else {
        element.children.push(XmlNode::Text(text));
    }
}

fn find_sub(haystack: &[u8], needle: &[u8]) -> Option<usize> {
    if needle.is_empty() || haystack.len() < needle.len() {
        return None;
    }
    haystack
        .windows(needle.len())
        .position(|window| window == needle)
}

/// Decodes the five predefined entities and numeric character references.
fn decode_entities(raw: &str) -> Result<String, String> {
    if !raw.contains('&') {
        return Ok(raw.to_owned());
    }
    let mut out = String::with_capacity(raw.len());
    let mut rest = raw;
    while let Some(amp) = rest.find('&') {
        out.push_str(&rest[..amp]);
        rest = &rest[amp..];
        let semi = rest
            .find(';')
            .ok_or_else(|| "unterminated entity reference".to_owned())?;
        let entity = &rest[1..semi];
        match entity {
            "lt" => out.push('<'),
            "gt" => out.push('>'),
            "amp" => out.push('&'),
            "quot" => out.push('"'),
            "apos" => out.push('\''),
            _ if entity.starts_with("#x") || entity.starts_with("#X") => {
                let code = u32::from_str_radix(&entity[2..], 16)
                    .map_err(|_| format!("bad character reference '&{entity};'"))?;
                out.push(char::from_u32(code).ok_or("invalid character code")?);
            }
            _ if entity.starts_with('#') => {
                let code: u32 = entity[1..]
                    .parse()
                    .map_err(|_| format!("bad character reference '&{entity};'"))?;
                out.push(char::from_u32(code).ok_or("invalid character code")?);
            }
            _ => return Err(format!("unknown entity '&{entity};'")),
        }
        rest = &rest[semi + 1..];
    }
    out.push_str(rest);
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn minimal_document() {
        let doc = parse("<a/>").unwrap();
        assert_eq!(doc.root.name, "a");
        assert!(doc.root.children.is_empty());
        assert_eq!(doc.item_count(), 2);
    }

    #[test]
    fn paper_figure_2_fragment() {
        // The <article> fragment shape from Figure 2.
        let doc = parse(
            r#"<article year="2005"><title>Dataspaces</title><author>Franklin</author></article>"#,
        )
        .unwrap();
        assert_eq!(doc.root.name, "article");
        assert_eq!(doc.root.attr("year"), Some("2005"));
        assert_eq!(doc.root.child_elements().count(), 2);
        assert_eq!(
            doc.root.child_named("title").unwrap().direct_text(),
            "Dataspaces"
        );
        // document + article + title + text + author + text = 6 items.
        assert_eq!(doc.item_count(), 6);
    }

    #[test]
    fn declaration_comments_pis_doctype_skipped() {
        let doc = parse(
            "<?xml version=\"1.0\" encoding=\"UTF-8\"?>\n\
             <!DOCTYPE html [ <!ENTITY x \"y\"> ]>\n\
             <!-- a comment -->\n\
             <root><?pi data?><!-- inner --><a/></root>\n\
             <!-- trailing -->",
        )
        .unwrap();
        assert_eq!(doc.root.name, "root");
        assert_eq!(doc.root.child_elements().count(), 1);
    }

    #[test]
    fn cdata_becomes_text_and_merges() {
        let doc = parse("<a>one <![CDATA[<two> & ]]>three</a>").unwrap();
        assert_eq!(doc.root.children.len(), 1, "merged into one run");
        assert_eq!(doc.root.direct_text(), "one <two> & three");
    }

    #[test]
    fn entities_decoded() {
        let doc = parse("<a x=\"&lt;&amp;&quot;&#65;&#x42;\">&gt;&apos;</a>").unwrap();
        assert_eq!(doc.root.attr("x"), Some("<&\"AB"));
        assert_eq!(doc.root.direct_text(), ">'");
    }

    #[test]
    fn unknown_entity_rejected() {
        assert!(parse("<a>&nbsp;</a>").is_err());
        assert!(parse("<a>&unterminated</a>").is_err());
    }

    #[test]
    fn mismatched_tags_rejected() {
        let err = parse("<a><b></a></b>").unwrap_err();
        assert!(err.message.contains("mismatched"), "{err}");
        assert!(parse("<a>").is_err());
        assert!(parse("<a></a><b/>").is_err());
        assert!(parse("plain text").is_err());
    }

    #[test]
    fn duplicate_attributes_rejected() {
        assert!(parse(r#"<a x="1" x="2"/>"#).is_err());
    }

    #[test]
    fn invalid_names_rejected() {
        assert!(parse("<1a/>").is_err());
        assert!(parse("<-a/>").is_err());
    }

    #[test]
    fn whitespace_text_dropped_by_default_kept_on_request() {
        let pretty = "<a>\n  <b>x</b>\n</a>";
        let doc = parse(pretty).unwrap();
        assert_eq!(doc.root.children.len(), 1);

        let doc = parse_with(
            pretty,
            ParseOptions {
                drop_whitespace_text: false,
            },
        )
        .unwrap();
        assert_eq!(doc.root.children.len(), 3, "ws runs kept");
    }

    #[test]
    fn single_quoted_attributes() {
        let doc = parse("<a x='hello world'/>").unwrap();
        assert_eq!(doc.root.attr("x"), Some("hello world"));
    }

    #[test]
    fn deep_text_spans_subtree() {
        let doc = parse("<a>x<b>y<c>z</c></b>w</a>").unwrap();
        assert_eq!(doc.root.deep_text(), "xyzw");
    }

    #[test]
    fn nested_depth_is_handled() {
        let mut input = String::new();
        for i in 0..200 {
            input.push_str(&format!("<e{i}>"));
        }
        input.push_str("leaf");
        for i in (0..200).rev() {
            input.push_str(&format!("</e{i}>"));
        }
        let doc = parse(&input).unwrap();
        assert_eq!(doc.root.name, "e0");
        assert_eq!(doc.root.deep_text(), "leaf");
    }

    #[test]
    fn attribute_with_lt_rejected() {
        assert!(parse(r#"<a x="a<b"/>"#).is_err());
    }

    #[test]
    fn activexml_document_from_section_4_3_1() {
        let doc = parse("<dep>\n  <sc>web.server.com/GetDepartments()</sc>\n</dep>").unwrap();
        assert_eq!(doc.root.name, "dep");
        let sc = doc.root.child_named("sc").unwrap();
        assert_eq!(sc.direct_text(), "web.server.com/GetDepartments()");
    }
}
