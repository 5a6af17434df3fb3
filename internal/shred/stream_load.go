package shred

// One shredding walk: Edge, Interval, Binary, Dewey and Inline
// decompose a token stream in a single pass over an
// xmldom.TokenSource — a Tokenizer over XML text, or a parsed
// Document's replay — with memory proportional to its depth (plus one
// insert batch). A scheme's Insert places the walk under the parent it
// looks up (walkAt): a document walks under the document node of an
// empty database, a fragment under an element with fresh ids.
// Element rows are emitted when the element CLOSES, because subtree size
// and denormalized simple content are only known then; queries order by
// stored ranks, so the physical insertion order is never observed.

import (
	"strings"

	"repro/internal/sqldb"
	"repro/internal/translate"
	"repro/internal/xmldom"
)

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
	// its rows (Binary creates label partitions in document order, Dewey
	// labels the element so its attributes and children can extend it).
	open(f *streamFrame) error
	node(n *shredNode) error
}

// walkAt places a walk: the node the walked tokens hang under and the
// ranks the first of them takes.
type walkAt struct {
	parent  int64  // id of the node the tokens hang under; 0 is the document node
	level   int    // that node's level
	path    string // that node's catalog label path
	next    int64  // id of the first walked node
	ordinal int64  // global ordinal of the first walked node
}

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

// pathLevel is the level of the node a label path leads to: its
// segment count, 0 for the document node's empty path.
func pathLevel(path string) int {
	if path == "" {
		return 0
	}
	return strings.Count(path, "/") + 1
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
// goes into catalog when one is given. Under an element (at.parent is
// not the document node) only the fragment's element is walked: the
// comments and PIs around it are dropped. It returns the number of
// nodes walked and the deepest level reached.
func streamWalk(src xmldom.TokenSource, sink streamSink, catalog *translate.PathCatalog, at walkAt) (int64, int, error) {
	frames := []*streamFrame{{pre: at.parent, level: at.level, children: int(at.ordinal - 1), path: at.path}}
	nextPre := at.next
	maxLevel := 0
	n := new(shredNode) // reused for every node: sinks must not keep it
	// leaf ranks a non-element child of the innermost open element.
	leaf := func(kind string, seg string, name, value sqldb.Value) error {
		if len(frames) == 1 && at.parent != 0 {
			return nil
		}
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
			if err := sink.open(f); err != nil {
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

// edgeSink shreds into the edge relation.
type edgeSink struct{ b *batcher }

func (s *edgeSink) open(*streamFrame) error { return nil }

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

// intervalSink shreds into the accel relation.
type intervalSink struct{ b *batcher }

func (s *intervalSink) open(*streamFrame) error { return nil }

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

// binarySink shreds into the label partitions, creating each on first
// sight.
type binarySink struct {
	bn *Binary
	st *schemeState
	db sqldb.Writer
	bs *tableBatchers
}

func (s *binarySink) open(f *streamFrame) error {
	_, err := s.bn.partitionFor(s.db, s.st, stateElem, f.name)
	return err
}

func (s *binarySink) node(n *shredNode) error {
	var table string
	var err error
	switch n.kind {
	case "elem":
		table, err = s.bn.partitionFor(s.db, s.st, stateElem, n.name.Text())
	case "attr":
		table, err = s.bn.partitionFor(s.db, s.st, stateAttr, n.name.Text())
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
	row := []sqldb.Value{sqldb.NewInt(n.parent), sqldb.NewInt(n.ordinal), sqldb.NewInt(n.pre), n.value}
	if n.kind == "pi" {
		row = append(row, n.name) // the target
	}
	return s.bs.add(table, row)
}

// deweySink shreds into the dewey relation. labels stacks the open
// elements' labels above the label of the node the walk starts under
// ("" for the document node).
type deweySink struct {
	b      *batcher
	labels []string
	// first is the component of the walk's first top-level node, placed
	// between its new neighbours; a document's later top-level nodes
	// (comments and PIs after its element) follow deweyGap apart.
	first int64
}

// label numbers a node by its global ordinal under the innermost open
// element, refusing a component that would not fit deweyWidth digits.
func (s *deweySink) label(ordinal int64) (string, error) {
	comp := ordinal * deweyGap
	if len(s.labels) == 1 {
		comp = s.first + (ordinal-1)*deweyGap
	}
	if comp >= deweyLimit {
		return "", errLabelOverflow(comp)
	}
	if parent := s.labels[len(s.labels)-1]; parent != "" {
		return parent + "." + deweyComp(comp), nil
	}
	return deweyComp(comp), nil
}

func (s *deweySink) open(f *streamFrame) error {
	l, err := s.label(f.ordinal)
	if err != nil {
		return err
	}
	s.labels = append(s.labels, l)
	return nil
}

func (s *deweySink) node(n *shredNode) error {
	var label string
	if n.kind == "elem" {
		label = s.labels[len(s.labels)-1]
		s.labels = s.labels[:len(s.labels)-1]
	} else {
		var err error
		if label, err = s.label(n.ordinal); err != nil {
			return err
		}
	}
	parent := sqldb.Null
	if p := s.labels[len(s.labels)-1]; p != "" {
		parent = sqldb.NewText(p)
	}
	return s.b.add([]sqldb.Value{
		sqldb.NewInt(n.pre),
		sqldb.NewText(label),
		parent,
		sqldb.NewInt(int64(n.level)),
		sqldb.NewText(n.kind),
		n.name,
		n.value,
	})
}
