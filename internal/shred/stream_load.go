package shred

// One shredding walk: Edge, Interval and Binary decompose a document in
// a single pass over an xmldom.TokenSource — a Tokenizer over XML text,
// or a parsed Document's replay — with memory proportional to its depth
// (plus one insert batch). The same walk shreds an inserted subtree,
// placed under its parent with fresh ids. Element rows are emitted when
// the element CLOSES, because subtree size and denormalized simple
// content are only known then; queries order by stored ranks, so the
// physical insertion order is never observed.

import (
	"context"
	"sort"
	"strings"

	"repro/internal/sqldb"
	"repro/internal/translate"
	"repro/internal/xmldom"
)

// StreamLoader is implemented by the schemes that shred a token stream
// without materializing it (Edge, Interval, Binary). Cancellation is
// honored at bulk-insert batch granularity.
type StreamLoader interface {
	LoadStream(ctx context.Context, db *sqldb.Database, src xmldom.TokenSource) error
}

// shredNode is one non-document node as the walk ranks it: the column
// inputs every node-per-row mapping stores.
type shredNode struct {
	pre     int64 // node id: pre-order rank, attributes right after their owner
	parent  int64 // the parent's id
	ordinal int64 // 1-based position among the parent's attributes then children
	level   int   // depth below the document node
	size    int64 // descendants, attributes included
	kind    string
	name    sqldb.Value // element, attribute or PI name; NULL otherwise
	value   sqldb.Value // leaf value, or an element's simple content
}

// streamSink receives the walk's nodes. Attributes and leaves arrive at
// their pre-order position, elements at close.
type streamSink interface {
	// open reports an element's start tag, in pre-order, before any of
	// its rows (Binary creates label partitions in document order).
	open(name string) error
	node(n *shredNode) error
}

// walkAt places a walk: the node the walked tokens hang under and the
// ranks the first of them takes.
type walkAt struct {
	parent  int64  // id of the node the tokens hang under
	level   int    // that node's level
	path    string // that node's catalog label path
	next    int64  // id of the first walked node
	ordinal int64  // global ordinal of the first walked node
}

// loadAt places a whole document under the document node (id 0).
var loadAt = walkAt{next: 1, ordinal: 1}

// streamFrame is one open element (or the node the walk starts under).
type streamFrame struct {
	pre      int64
	parent   int64
	ordinal  int64
	level    int
	nAttrs   int
	children int
	name     string
	path     string
	text     strings.Builder
	sawElem  bool
}

func joinPath(parent, seg string) string {
	if parent == "" {
		return seg
	}
	return parent + "/" + seg
}

// streamWalk replays Document.Number over a token stream: every node is
// ranked in pre-order with attributes directly after their owner, Size
// counts descendants (attributes included), Level is depth from the
// document node, and the global ordinal numbers a node within its
// parent's attributes-then-children sequence. Each node's label path
// goes into catalog when one is given. It returns the number of nodes
// walked and the deepest level reached.
func streamWalk(src xmldom.TokenSource, sink streamSink, catalog *translate.PathCatalog, at walkAt) (int64, int, error) {
	frames := []*streamFrame{{pre: at.parent, level: at.level, children: int(at.ordinal - 1), path: at.path}}
	nextPre := at.next
	maxLevel := 0
	n := new(shredNode) // reused for every node: sinks must not keep it
	// leaf ranks a non-element child of the innermost open element.
	leaf := func(kind string, seg string, name, value sqldb.Value) error {
		top := frames[len(frames)-1]
		top.children++
		*n = shredNode{pre: nextPre, parent: top.pre, ordinal: int64(top.nAttrs + top.children),
			level: top.level + 1, kind: kind, name: name, value: value}
		nextPre++
		maxLevel = max(maxLevel, n.level)
		if catalog != nil {
			catalog.Add(joinPath(top.path, seg))
		}
		return sink.node(n)
	}
	for {
		tok, err := src.Next()
		if err != nil {
			return 0, 0, err
		}
		top := frames[len(frames)-1]
		switch tok.Kind {
		case xmldom.TokStart:
			top.children++
			top.sawElem = true
			f := &streamFrame{
				pre:     nextPre,
				parent:  top.pre,
				ordinal: int64(top.nAttrs + top.children),
				level:   top.level + 1,
				nAttrs:  len(tok.Attrs),
				name:    tok.Name,
			}
			nextPre++
			maxLevel = max(maxLevel, f.level)
			if err := sink.open(tok.Name); err != nil {
				return 0, 0, err
			}
			if catalog != nil {
				f.path = joinPath(top.path, tok.Name)
				catalog.Add(f.path)
			}
			for i, a := range tok.Attrs {
				*n = shredNode{pre: nextPre, parent: f.pre, ordinal: int64(i + 1), level: f.level + 1,
					kind: "attr", name: sqldb.NewText(a.Name), value: sqldb.NewText(a.Value)}
				nextPre++
				maxLevel = max(maxLevel, n.level)
				if catalog != nil {
					catalog.Add(joinPath(f.path, "@"+a.Name))
				}
				if err := sink.node(n); err != nil {
					return 0, 0, err
				}
			}
			frames = append(frames, f)
		case xmldom.TokEnd:
			frames = frames[:len(frames)-1]
			// Denormalized simple content: concatenated text children when
			// the element has no element children and real text.
			val := sqldb.Null
			if !top.sawElem && top.text.Len() > 0 {
				val = sqldb.NewText(top.text.String())
			}
			*n = shredNode{pre: top.pre, parent: top.parent, ordinal: top.ordinal, level: top.level,
				size: nextPre - top.pre - 1, kind: "elem", name: sqldb.NewText(top.name), value: val}
			if err := sink.node(n); err != nil {
				return 0, 0, err
			}
		case xmldom.TokText:
			top.text.WriteString(tok.Text)
			err = leaf("text", "#text", sqldb.Null, sqldb.NewText(tok.Text))
		case xmldom.TokComment:
			err = leaf("comment", "#comment", sqldb.Null, sqldb.NewText(tok.Text))
		case xmldom.TokProcInst:
			err = leaf("pi", "#pi", sqldb.NewText(tok.Name), sqldb.NewText(tok.Text))
		case xmldom.TokEOF:
			return nextPre - at.next, maxLevel, nil
		}
		if err != nil {
			return 0, 0, err
		}
	}
}

// subtreeTokens replays one detached subtree as a token stream.
func subtreeTokens(n *xmldom.Node) xmldom.TokenSource {
	return (&xmldom.Document{Root: &xmldom.Node{Kind: xmldom.DocumentNode, Children: []*xmldom.Node{n}}}).Tokens()
}

// edgeSink shreds into the edge relation.
type edgeSink struct{ b *batcher }

func (s *edgeSink) open(string) error { return nil }

func (s *edgeSink) node(n *shredNode) error {
	return s.b.add([]sqldb.Value{
		sqldb.NewInt(n.parent),
		sqldb.NewInt(n.ordinal),
		n.name,
		sqldb.NewText(n.kind),
		sqldb.NewInt(n.pre),
		n.value,
	})
}

// LoadStream implements StreamLoader for the edge mapping.
func (e *Edge) LoadStream(ctx context.Context, db *sqldb.Database, src xmldom.TokenSource) error {
	s := &edgeSink{b: newBatcherCtx(ctx, db, "edge")}
	_, maxLevel, err := streamWalk(src, s, e.catalog, loadAt)
	if err != nil {
		return err
	}
	if maxLevel > 0 {
		e.maxDepth = maxLevel
	}
	return s.b.flush()
}

// intervalSink shreds into the accel relation.
type intervalSink struct{ b *batcher }

func (s *intervalSink) open(string) error { return nil }

func (s *intervalSink) node(n *shredNode) error {
	return s.b.add([]sqldb.Value{
		sqldb.NewInt(n.pre),
		sqldb.NewInt(n.parent),
		sqldb.NewInt(n.size),
		sqldb.NewInt(int64(n.level)),
		sqldb.NewInt(n.ordinal),
		sqldb.NewText(n.kind),
		n.name,
		n.value,
	})
}

// LoadStream implements StreamLoader for the interval mapping.
func (iv *Interval) LoadStream(ctx context.Context, db *sqldb.Database, src xmldom.TokenSource) error {
	s := &intervalSink{b: newBatcherCtx(ctx, db, "accel")}
	nodes, _, err := streamWalk(src, s, nil, loadAt)
	if err != nil {
		return err
	}
	// The document node's own row: pre 0, no parent, the whole document
	// as its subtree.
	doc := []sqldb.Value{sqldb.NewInt(0), sqldb.Null, sqldb.NewInt(nodes), sqldb.NewInt(0),
		sqldb.NewInt(1), sqldb.NewText("doc"), sqldb.Null, sqldb.Null}
	if err := s.b.add(doc); err != nil {
		return err
	}
	return s.b.flush()
}

// binarySink shreds into the label partitions, creating each on first
// sight.
type binarySink struct {
	bn       *Binary
	ctx      context.Context // nil: never canceled
	db       *sqldb.Database
	batchers map[string]*batcher
}

func (s *binarySink) open(name string) error {
	_, err := s.bn.partitionFor(s.db, s.bn.elemTables, "be_", name)
	return err
}

func (s *binarySink) node(n *shredNode) error {
	var table string
	var err error
	switch n.kind {
	case "elem":
		table, err = s.bn.partitionFor(s.db, s.bn.elemTables, "be_", n.name.Text())
	case "attr":
		table, err = s.bn.partitionFor(s.db, s.bn.attrTables, "ba_", n.name.Text())
	case "text":
		table = "bt_text"
	case "comment":
		table = "bt_comment"
	case "pi":
		table = "bt_pi"
	}
	if err != nil {
		return err
	}
	b := s.batchers[table]
	if b == nil {
		b = newBatcherCtx(s.ctx, s.db, table)
		s.batchers[table] = b
	}
	return b.add([]sqldb.Value{sqldb.NewInt(n.parent), sqldb.NewInt(n.ordinal), sqldb.NewInt(n.pre), n.value})
}

// flush flushes every partition's batch, in table-name order.
func (s *binarySink) flush() error {
	tables := make([]string, 0, len(s.batchers))
	for t := range s.batchers {
		tables = append(tables, t)
	}
	sort.Strings(tables)
	for _, t := range tables {
		if err := s.batchers[t].flush(); err != nil {
			return err
		}
	}
	return nil
}

// LoadStream implements StreamLoader for the binary mapping.
func (bn *Binary) LoadStream(ctx context.Context, db *sqldb.Database, src xmldom.TokenSource) error {
	s := &binarySink{bn: bn, ctx: ctx, db: db, batchers: map[string]*batcher{}}
	if _, _, err := streamWalk(src, s, bn.catalog, loadAt); err != nil {
		return err
	}
	return s.flush()
}
