package xmldom

// Streaming parse API: a Tokenizer reads an XML document from an
// io.Reader and emits a flat event stream — start/end element, text,
// comment, processing instruction — without materializing the document
// tree. It is the package's only lexer: Parse, ParseString and
// ParseReader build their DOM from its tokens. The dialect is
// non-validating, with the five predefined entities, character
// references, and the DOCTYPE internal subset captured verbatim.
// Consecutive character data and CDATA sections coalesce into one Text
// event, and whitespace-only runs between elements are dropped unless
// adjacent to real text. SAX-style consumers (the shredders in
// internal/shred) keep memory proportional to document depth, not size.
//
// The lexer scans a window over its own read buffer: names, character
// data, attribute values, whitespace and delimited sections are found
// by scanning the buffered bytes, never byte by byte through a reader
// call. A token that outgrows the buffer doubles it, so every run is
// contiguous and is copied once, into its string.

import (
	"bytes"
	"fmt"
	"io"
	"strings"
)

// TokenKind identifies a streaming event.
type TokenKind int

const (
	// TokStart opens an element (Name, Attrs valid).
	TokStart TokenKind = iota
	// TokEnd closes the innermost open element (Name valid).
	TokEnd
	// TokText is one coalesced run of character data (Text valid).
	TokText
	// TokComment is a comment (Text valid).
	TokComment
	// TokProcInst is a processing instruction (Name, Text valid).
	TokProcInst
	// TokEOF reports a well-formed end of document.
	TokEOF
)

// Attr is one attribute on a TokStart token, in document order.
type Attr struct {
	Name  string
	Value string
}

// Token is one streaming event. A TokStart token's Attrs slice is reused
// by the source: it is valid until the next call to Next.
type Token struct {
	Kind  TokenKind
	Name  string
	Attrs []Attr
	Text  string
}

// TokenSource yields a document as tokens, ending with TokEOF or an
// error. *Tokenizer lexes one from text; Document.Tokens replays a
// parsed tree.
type TokenSource interface {
	Next() (Token, error)
}

// Tokenizer streams tokens from an XML document. Create with
// NewTokenizer, then call Next until TokEOF or an error; errors are
// sticky.
type Tokenizer struct {
	src  io.Reader
	buf  []byte // the unread window is buf[pos:end]
	pos  int
	end  int
	base int   // input offset of buf[0], for error offsets
	rerr error // why reading stopped: io.EOF, or the reader's failure

	// DoctypeName and InternalSubset mirror Document's fields once the
	// DOCTYPE declaration (if any) has been scanned.
	DoctypeName    string
	InternalSubset string

	started bool // saw the optional XML declaration / first prolog scan
	// stack holds open element names; empty + rootSeen means epilog.
	stack    []string
	rootSeen bool

	// The pending text run: its first piece is kept as is, and textBuf
	// takes over only when a second piece (CDATA, more character data)
	// joins it.
	text    string
	textBuf strings.Builder

	queue []Token // tokens of the last step, served from qhead
	qhead int
	attrs []Attr            // the current start tag's attributes
	names map[string]string // interned element and attribute names
	err   error
}

// maxInterned bounds the name table, so a document with unboundedly
// many distinct names cannot grow it without limit.
const maxInterned = 4096

// NewTokenizer returns a Tokenizer reading from r.
func NewTokenizer(r io.Reader) *Tokenizer {
	return newTokenizer(r, 64<<10)
}

// newTokenizer reads r through a buffer of at most size bytes (it still
// grows for a token longer than that).
func newTokenizer(r io.Reader, size int) *Tokenizer {
	return &Tokenizer{
		src:   r,
		buf:   make([]byte, max(16, min(size, 64<<10))),
		names: map[string]string{},
	}
}

// errf reports a syntax error at the current offset, or the reader's
// own error when input stopped on one.
func (t *Tokenizer) errf(format string, args ...any) error {
	if t.rerr != nil && t.rerr != io.EOF {
		return t.rerr
	}
	return &ParseError{Offset: t.base + t.pos, Msg: fmt.Sprintf(format, args...)}
}

// Next returns the next token. After TokEOF or an error, further calls
// repeat the outcome.
func (t *Tokenizer) Next() (Token, error) {
	for {
		if t.qhead < len(t.queue) {
			tok := t.queue[t.qhead]
			t.qhead++
			return tok, nil
		}
		t.queue, t.qhead = t.queue[:0], 0
		if t.err != nil {
			return Token{}, t.err
		}
		if err := t.step(); err != nil {
			t.err = err
			return Token{}, err
		}
	}
}

func (t *Tokenizer) push(tok Token) { t.queue = append(t.queue, tok) }

// step parses one markup item, queueing zero or more tokens.
func (t *Tokenizer) step() error {
	if len(t.stack) == 0 {
		return t.stepProlog()
	}
	return t.stepContent()
}

// stepProlog handles everything outside the root element: the XML
// declaration, DOCTYPE, comments, PIs, the root start tag, and EOF.
func (t *Tokenizer) stepProlog() error {
	if !t.started {
		t.started = true
		t.skipSpace()
		if t.hasPrefix("<?xml") {
			if _, err := t.readUntil("?>"); err != nil {
				return err
			}
		}
	}
	t.skipSpace()
	c, ok := t.peekByte()
	if !ok {
		if t.rootSeen && t.rerr == io.EOF {
			t.push(Token{Kind: TokEOF})
			return nil
		}
		return t.errf("missing root element")
	}
	if c != '<' {
		return t.errf("content outside of root element")
	}
	switch {
	case t.hasPrefix("<!--"):
		text, err := t.parseComment()
		if err != nil {
			return err
		}
		t.push(Token{Kind: TokComment, Text: text})
	case t.hasPrefix("<?"):
		name, data, err := t.parsePI()
		if err != nil {
			return err
		}
		t.push(Token{Kind: TokProcInst, Name: name, Text: data})
	case t.hasPrefix("<!DOCTYPE"):
		if err := t.parseDoctype(); err != nil {
			return err
		}
	default:
		if t.rootSeen {
			return t.errf("multiple root elements")
		}
		t.rootSeen = true
		return t.parseStartTag()
	}
	return nil
}

// stepContent handles one item inside an open element.
func (t *Tokenizer) stepContent() error {
	name := t.stack[len(t.stack)-1]
	c, ok := t.peekByte()
	if !ok {
		return t.errf("missing </%s>", name)
	}
	if c != '<' {
		return t.charData()
	}
	var second byte
	if t.ensure(2) {
		second = t.buf[t.pos+1]
	}
	switch {
	case second == '/':
		t.flushText()
		t.pos += 2
		if err := t.endTag(name); err != nil {
			return err
		}
		t.stack = t.stack[:len(t.stack)-1]
		t.push(Token{Kind: TokEnd, Name: name})
	case second == '!' && t.hasPrefix("<!--"):
		t.flushText()
		text, err := t.parseComment()
		if err != nil {
			return err
		}
		t.push(Token{Kind: TokComment, Text: text})
	case second == '!' && t.hasPrefix("<![CDATA["):
		t.pos += len("<![CDATA[")
		data, err := t.readUntil("]]>")
		if err != nil {
			return err
		}
		t.addText(data)
	case second == '?':
		t.flushText()
		name, data, err := t.parsePI()
		if err != nil {
			return err
		}
		t.push(Token{Kind: TokProcInst, Name: name, Text: data})
	default:
		t.flushText()
		return t.parseStartTag()
	}
	return nil
}

// endTag consumes the rest of "</name>" after "</", checking the name
// against the open element's without interning it.
func (t *Tokenizer) endTag(name string) error {
	c, ok := t.peekByte()
	if !ok || !isNameStart(rune(c)) {
		return t.errf("expected name")
	}
	raw, _ := t.scan(findNameEnd)
	if string(raw) != name {
		return t.errf("mismatched end tag </%s>, expected </%s>", raw, name)
	}
	t.skipSpace()
	if c, _ := t.peekByte(); c != '>' {
		return t.errf("malformed end tag </%s", name)
	}
	t.pos++
	return nil
}

// charData consumes character data up to the next '<' (or EOF) and
// adds it to the pending text run. Whitespace-only runs between
// elements are dropped; whitespace adjacent to real text is kept.
func (t *Tokenizer) charData() error {
	raw, _ := t.scan(findLT)
	pending := t.text != "" || t.textBuf.Len() > 0
	if !pending && asciiSpace(raw) {
		return nil
	}
	text, err := decodeEntities(string(raw), t.errf)
	if err != nil {
		return err
	}
	if pending || strings.TrimSpace(text) != "" {
		t.addText(text)
	}
	return nil
}

func asciiSpace(b []byte) bool {
	for _, c := range b {
		if !isSpace(c) {
			return false
		}
	}
	return true
}

func isSpace(c byte) bool { return c == ' ' || c == '\t' || c == '\n' || c == '\r' }

// addText appends one piece to the pending text run.
func (t *Tokenizer) addText(s string) {
	switch {
	case t.textBuf.Len() > 0:
		t.textBuf.WriteString(s)
	case t.text == "":
		t.text = s
	case s != "":
		t.textBuf.Grow(len(t.text) + len(s))
		t.textBuf.WriteString(t.text)
		t.textBuf.WriteString(s)
		t.text = ""
	}
}

// flushText queues the pending text run, if any.
func (t *Tokenizer) flushText() {
	s := t.text
	if t.textBuf.Len() > 0 {
		s = t.textBuf.String()
		t.textBuf.Reset()
	}
	t.text = ""
	if s != "" {
		t.push(Token{Kind: TokText, Text: s})
	}
}

// parseStartTag consumes "<name attr=... >" or "<name/>", queueing the
// start token (and the matching end token for an empty element).
func (t *Tokenizer) parseStartTag() error {
	t.pos++ // '<'
	name, err := t.parseName()
	if err != nil {
		return err
	}
	t.attrs = t.attrs[:0]
	for {
		t.skipSpace()
		c, ok := t.peekByte()
		if !ok {
			return t.errf("unterminated start tag <%s", name)
		}
		if c == '>' {
			t.pos++
			t.stack = append(t.stack, name)
			t.push(Token{Kind: TokStart, Name: name, Attrs: t.attrs})
			return nil
		}
		if c == '/' {
			if !t.hasPrefix("/>") {
				return t.errf("malformed empty-element tag")
			}
			t.pos += 2
			t.push(Token{Kind: TokStart, Name: name, Attrs: t.attrs})
			t.push(Token{Kind: TokEnd, Name: name})
			return nil
		}
		aname, err := t.parseName()
		if err != nil {
			return err
		}
		t.skipSpace()
		if c, _ := t.peekByte(); c != '=' {
			return t.errf("expected '=' after attribute %s", aname)
		}
		t.pos++
		t.skipSpace()
		aval, err := t.parseAttValue()
		if err != nil {
			return err
		}
		for _, a := range t.attrs {
			if a.Name == aname {
				return t.errf("duplicate attribute %s on <%s>", aname, name)
			}
		}
		t.attrs = append(t.attrs, Attr{Name: aname, Value: aval})
	}
}

func (t *Tokenizer) parseAttValue() (string, error) {
	q, ok := t.peekByte()
	if !ok {
		return "", t.errf("expected attribute value")
	}
	find := findQuot
	switch q {
	case '"':
	case '\'':
		find = findApos
	default:
		return "", t.errf("attribute value must be quoted")
	}
	t.pos++
	raw, atEnd := t.scan(find)
	if atEnd {
		return "", t.errf("unterminated attribute value")
	}
	if t.buf[t.pos] == '<' {
		return "", t.errf("'<' in attribute value")
	}
	val := string(raw)
	t.pos++
	return decodeEntities(val, t.errf)
}

func (t *Tokenizer) parseComment() (string, error) {
	t.pos += len("<!--")
	return t.readUntil("-->")
}

func (t *Tokenizer) parsePI() (string, string, error) {
	t.pos += len("<?")
	name, err := t.parseName()
	if err != nil {
		return "", "", err
	}
	data, err := t.readUntil("?>")
	if err != nil {
		return "", "", err
	}
	return name, strings.TrimSpace(data), nil
}

// parseDoctype scans the DOCTYPE declaration, capturing the last
// [internal subset] verbatim. Quoted literals are skipped whole, so a
// bracket inside one does not nest.
func (t *Tokenizer) parseDoctype() error {
	t.pos += len("<!DOCTYPE")
	t.skipSpace()
	name, err := t.parseName()
	if err != nil {
		return err
	}
	t.DoctypeName = name
	depth := 0
	var subset strings.Builder
	capturing := false
	for {
		c, ok := t.readByte()
		if !ok {
			return t.errf("unterminated DOCTYPE")
		}
		switch c {
		case '[':
			depth++
			if depth == 1 {
				capturing = true
				subset.Reset()
				continue
			}
		case ']':
			depth--
			if depth == 0 && capturing {
				t.InternalSubset = subset.String()
				capturing = false
				continue
			}
		case '>':
			if depth == 0 {
				return nil
			}
		case '"', '\'':
			if capturing {
				subset.WriteByte(c)
			}
			q := c
			for {
				c2, ok := t.readByte()
				if !ok {
					return t.errf("unterminated literal in DOCTYPE")
				}
				if capturing {
					subset.WriteByte(c2)
				}
				if c2 == q {
					break
				}
			}
			continue
		}
		if capturing {
			subset.WriteByte(c)
		}
	}
}

// readUntil consumes up to and including delim, returning the text
// before it; a missing delimiter is reported where the text starts.
func (t *Tokenizer) readUntil(delim string) (string, error) {
	d := []byte(delim)
	start := t.base + t.pos
	from := 0
	for {
		w := t.buf[t.pos:t.end]
		if i := bytes.Index(w[from:], d); i >= 0 {
			i += from
			s := string(w[:i])
			t.pos += i + len(d)
			return s, nil
		}
		from = max(0, len(w)-len(d)+1)
		if !t.more() {
			if t.rerr != io.EOF {
				return "", t.rerr
			}
			return "", &ParseError{Offset: start, Msg: fmt.Sprintf("missing %q", delim)}
		}
	}
}

// parseName consumes a name and returns it interned.
func (t *Tokenizer) parseName() (string, error) {
	c, ok := t.peekByte()
	if !ok || !isNameStart(rune(c)) {
		return "", t.errf("expected name")
	}
	raw, _ := t.scan(findNameEnd)
	if s, ok := t.names[string(raw)]; ok {
		return s, nil
	}
	s := string(raw)
	if len(t.names) < maxInterned {
		t.names[s] = s
	}
	return s, nil
}

// nameByte marks the bytes a name may contain. Every byte from 0x80 up
// belongs to some non-ASCII rune (or is invalid UTF-8, which names
// accept), so names scan byte by byte.
var nameByte = func() (tab [256]bool) {
	for c := 0; c < 256; c++ {
		tab[c] = isNameChar(rune(c))
	}
	return tab
}()

// Run terminators for scan: each returns the index of the first byte
// that ends the run, or -1.
func findLT(w []byte) int { return bytes.IndexByte(w, '<') }

func findNameEnd(w []byte) int {
	for i, c := range w {
		if !nameByte[c] {
			return i
		}
	}
	return -1
}

func findQuot(w []byte) int { return indexEither(w, '"', '<') }
func findApos(w []byte) int { return indexEither(w, '\'', '<') }

func indexEither(w []byte, a, b byte) int {
	for i, c := range w {
		if c == a || c == b {
			return i
		}
	}
	return -1
}

// scan consumes the run up to the first byte find reports, leaving that
// byte unread, and returns the run; atEnd means the input ended first.
// The run aliases the buffer: it is valid until the next read.
func (t *Tokenizer) scan(find func([]byte) int) (run []byte, atEnd bool) {
	n := 0 // bytes of the run already searched, from t.pos
	for {
		if i := find(t.buf[t.pos+n : t.end]); i >= 0 {
			run = t.buf[t.pos : t.pos+n+i]
			t.pos += n + i
			return run, false
		}
		n = t.end - t.pos
		if !t.more() {
			run = t.buf[t.pos:t.end]
			t.pos = t.end
			return run, true
		}
	}
}

func (t *Tokenizer) skipSpace() {
	for {
		for t.pos < t.end {
			if !isSpace(t.buf[t.pos]) {
				return
			}
			t.pos++
		}
		if !t.more() {
			return
		}
	}
}

// more reads more input into the window. When the buffer is full it
// first slides the window to the front, or doubles the buffer if the
// window already fills it. It reports false once the input has ended
// (t.rerr says how). Slices of the window do not survive the call.
func (t *Tokenizer) more() bool {
	if t.rerr != nil {
		return false
	}
	if t.end == len(t.buf) {
		if t.pos == 0 {
			t.buf = append(t.buf, make([]byte, len(t.buf))...)
		} else {
			t.end = copy(t.buf, t.buf[t.pos:t.end])
			t.base += t.pos
			t.pos = 0
		}
	}
	for range 100 {
		n, err := t.src.Read(t.buf[t.end:])
		t.end += n
		if err != nil {
			t.rerr = err
		}
		if n > 0 {
			return true
		}
		if err != nil {
			return false
		}
	}
	t.rerr = io.ErrNoProgress
	return false
}

// ensure reports whether at least n bytes are buffered, reading as
// needed.
func (t *Tokenizer) ensure(n int) bool {
	for t.end-t.pos < n {
		if !t.more() {
			return false
		}
	}
	return true
}

func (t *Tokenizer) peekByte() (byte, bool) {
	if t.pos == t.end && !t.more() {
		return 0, false
	}
	return t.buf[t.pos], true
}

func (t *Tokenizer) readByte() (byte, bool) {
	c, ok := t.peekByte()
	if ok {
		t.pos++
	}
	return c, ok
}

func (t *Tokenizer) hasPrefix(s string) bool {
	return t.ensure(len(s)) && string(t.buf[t.pos:t.pos+len(s)]) == s
}

// Tokens replays the document as a token stream in document order:
// the same tokens a Tokenizer yields for the document's text, except
// that text nodes are replayed one token each, as the tree holds them.
func (d *Document) Tokens() TokenSource {
	return &replay{stack: []replayFrame{{n: d.Root}}}
}

type replayFrame struct {
	n    *Node
	next int // index of the next child to visit
}

type replay struct {
	stack []replayFrame
	attrs []Attr
}

// Next implements TokenSource.
func (r *replay) Next() (Token, error) {
	for len(r.stack) > 0 {
		top := &r.stack[len(r.stack)-1]
		if top.next == len(top.n.Children) {
			r.stack = r.stack[:len(r.stack)-1]
			if top.n.Kind == ElementNode {
				return Token{Kind: TokEnd, Name: top.n.Name}, nil
			}
			continue
		}
		c := top.n.Children[top.next]
		top.next++
		switch c.Kind {
		case ElementNode:
			r.attrs = r.attrs[:0]
			for _, a := range c.Attrs {
				r.attrs = append(r.attrs, Attr{Name: a.Name, Value: a.Value})
			}
			r.stack = append(r.stack, replayFrame{n: c})
			return Token{Kind: TokStart, Name: c.Name, Attrs: r.attrs}, nil
		case TextNode:
			return Token{Kind: TokText, Text: c.Value}, nil
		case CommentNode:
			return Token{Kind: TokComment, Text: c.Value}, nil
		case ProcInstNode:
			return Token{Kind: TokProcInst, Name: c.Name, Text: c.Value}, nil
		}
	}
	return Token{Kind: TokEOF}, nil
}
