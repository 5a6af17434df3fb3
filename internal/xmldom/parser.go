package xmldom

import (
	"bytes"
	"fmt"
	"io"
	"strconv"
	"strings"
)

// ParseError reports a malformed document with byte-offset context.
type ParseError struct {
	Offset int
	Msg    string
}

// Error implements the error interface.
func (e *ParseError) Error() string {
	return fmt.Sprintf("xml: %s at offset %d", e.Msg, e.Offset)
}

// Parse parses an XML document. The parser is non-validating, resolves
// the five predefined entities and character references, preserves
// comments and processing instructions, and captures the DOCTYPE
// internal subset verbatim for the dtd package.
func Parse(src []byte) (*Document, error) {
	// Size the read buffer to the input so a small fragment does not
	// pay for a full-size window.
	return build(newTokenizer(bytes.NewReader(src), len(src)+1))
}

// ParseString parses a document given as a string.
func ParseString(src string) (*Document, error) {
	return build(newTokenizer(strings.NewReader(src), len(src)+1))
}

// ParseReader parses an XML document from a stream. Consumers that need
// bounded memory should drive the Tokenizer directly instead.
func ParseReader(r io.Reader) (*Document, error) {
	return build(NewTokenizer(r))
}

// build assembles the DOM from a token stream and numbers it.
func build(tz *Tokenizer) (*Document, error) {
	doc, err := Build(tz)
	if err != nil {
		return nil, err
	}
	doc.DoctypeName = tz.DoctypeName
	doc.InternalSubset = tz.InternalSubset
	return doc, nil
}

// Build assembles a numbered DOM from any token source.
func Build(src TokenSource) (*Document, error) {
	doc := &Document{Root: &Node{Kind: DocumentNode}}
	stack := []*Node{doc.Root}
	for {
		tok, err := src.Next()
		if err != nil {
			return nil, err
		}
		parent := stack[len(stack)-1]
		var n *Node
		switch tok.Kind {
		case TokEOF:
			doc.Number()
			return doc, nil
		case TokStart:
			n = &Node{Kind: ElementNode, Name: tok.Name}
			if len(tok.Attrs) > 0 {
				attrs := make([]Node, len(tok.Attrs))
				n.Attrs = make([]*Node, len(tok.Attrs))
				for i, a := range tok.Attrs {
					attrs[i] = Node{Kind: AttributeNode, Name: a.Name, Value: a.Value, Parent: n}
					n.Attrs[i] = &attrs[i]
				}
			}
			stack = append(stack, n)
		case TokEnd:
			stack = stack[:len(stack)-1]
			continue
		case TokText:
			n = &Node{Kind: TextNode, Value: tok.Text}
		case TokComment:
			n = &Node{Kind: CommentNode, Value: tok.Text}
		case TokProcInst:
			n = &Node{Kind: ProcInstNode, Name: tok.Name, Value: tok.Text}
		}
		n.Parent = parent
		parent.Children = append(parent.Children, n)
	}
}

func isNameStart(r rune) bool {
	return r == '_' || r == ':' || (r >= 'a' && r <= 'z') || (r >= 'A' && r <= 'Z') || r >= 0x80
}

func isNameChar(r rune) bool {
	return isNameStart(r) || r == '-' || r == '.' || (r >= '0' && r <= '9')
}

// decodeEntities resolves character references and the five predefined
// entities. Unknown entities are an error (no external DTD resolution).
// errf supplies position context.
func decodeEntities(s string, errf func(format string, args ...any) error) (string, error) {
	if !strings.ContainsRune(s, '&') {
		return s, nil
	}
	var b strings.Builder
	for i := 0; i < len(s); {
		c := s[i]
		if c != '&' {
			b.WriteByte(c)
			i++
			continue
		}
		end := strings.IndexByte(s[i:], ';')
		if end < 0 {
			return "", errf("unterminated entity reference")
		}
		ent := s[i+1 : i+end]
		switch {
		case ent == "lt":
			b.WriteByte('<')
		case ent == "gt":
			b.WriteByte('>')
		case ent == "amp":
			b.WriteByte('&')
		case ent == "apos":
			b.WriteByte('\'')
		case ent == "quot":
			b.WriteByte('"')
		case strings.HasPrefix(ent, "#"):
			r, ok := charRef(ent[1:])
			if !ok {
				return "", errf("bad character reference &%s;", ent)
			}
			b.WriteRune(r)
		default:
			return "", errf("unknown entity &%s;", ent)
		}
		i += end + 1
	}
	return b.String(), nil
}

// charRef decodes the digits of a character reference ("65", "x41" or
// "X41"). It accepts only code points a document may contain: unsigned
// digits, not 0, not a surrogate, nothing above U+10FFFF.
func charRef(digits string) (rune, bool) {
	base := 10
	if strings.HasPrefix(digits, "x") || strings.HasPrefix(digits, "X") {
		base, digits = 16, digits[1:]
	}
	// ParseUint refuses a sign, so "&#+65;" and "&#-65;" fail here.
	n, err := strconv.ParseUint(digits, base, 32)
	if err != nil || n == 0 || n > 0x10FFFF || (n >= 0xD800 && n <= 0xDFFF) {
		return 0, false
	}
	return rune(n), true
}
