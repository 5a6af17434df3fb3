package shred

import (
	"context"
	"slices"

	"repro/internal/sqldb"
	"repro/internal/translate"
	"repro/internal/xmldom"
	"repro/internal/xpath"
)

// Interval is the XPath-accelerator mapping (Grust): every node carries
// its pre-order rank, subtree size, level, parent and sibling ordinal,
// so each XPath axis is a region predicate and descendant steps are
// single range joins.
//
//	accel(pre, parent, size, level, ordinal, kind, name, value)
//
// The post rank is derivable from (pre, size, level) and is not stored.
// Three indexes serve the translated steps: (pre) region scans,
// (parent, kind, name, ordinal) child steps and positions, and (kind,
// name, pre) name tests. The child key carries the step's node test,
// so a named child step reads only the children it returns and a
// positional step's sibling count is a count of index entries; a
// wildcard step reads one parent's children grouped by name, and the
// translation's ORDER BY pre restores document order. A name test
// always comes with its kind, and XMark reuses
// element names as attribute names (@person, @item, @open_auction,
// @category), so keying names by kind keeps a name step from fetching
// its attribute namesakes; wildcard and text() steps use the kind
// prefix alone.
type Interval struct {
	valueIndex     bool
	childViaRegion bool
}

// NewInterval returns an Interval scheme; withValueIndex adds the
// (name, value) index for the F5 ablation.
func NewInterval(withValueIndex bool) *Interval {
	return &Interval{valueIndex: withValueIndex}
}

// ChildViaRegion toggles ablation A2: child steps as region predicates
// (pre-range + level) instead of parent-id probes.
func (iv *Interval) ChildViaRegion(on bool) { iv.childViaRegion = on }

// Name implements Scheme.
func (iv *Interval) Name() string { return "interval" }

// Setup implements Scheme.
func (iv *Interval) Setup(db *sqldb.Database) error {
	stmts := []string{
		// pre is logically unique but not declared PRIMARY KEY: the
		// renumbering sweep in Insert shifts many rows in one
		// UPDATE, which would transiently collide under a unique index.
		`CREATE TABLE accel (
			pre INTEGER NOT NULL,
			parent INTEGER,
			size INTEGER NOT NULL,
			level INTEGER NOT NULL,
			ordinal INTEGER NOT NULL,
			kind TEXT NOT NULL,
			name TEXT,
			value TEXT
		)`,
		`CREATE INDEX accel_pre ON accel (pre)`,
		`CREATE INDEX accel_parent ON accel (parent, kind, name, ordinal)`,
		`CREATE INDEX accel_kind_name ON accel (kind, name, pre)`,
	}
	if iv.valueIndex {
		stmts = append(stmts, `CREATE INDEX accel_name_value ON accel (name, value)`)
	}
	for _, s := range stmts {
		if _, err := db.Exec(s); err != nil {
			return err
		}
	}
	return nil
}

// Translate implements Scheme.
func (iv *Interval) Translate(_ sqldb.Queryer, q *xpath.Path) (string, error) {
	return translate.Interval(q, translate.IntervalOptions{ChildViaRegion: iv.childViaRegion})
}

// Reconstruct implements Scheme.
func (iv *Interval) Reconstruct(db sqldb.Queryer) (*xmldom.Document, error) {
	rows, err := db.Query(`SELECT pre, parent, ordinal, kind, name, value FROM accel`)
	if err != nil {
		return nil, err
	}
	return assemble("interval", appendStored(nil, rows))
}

// Insert implements Scheme. The interval encoding pays the paper's
// documented price here: when rows lie at or after the insertion
// point, every one of them must be renumbered (two document-wide UPDATE
// sweeps), in contrast to Dewey's local relabeling — the F3 contrast.
// Renumbering needs the subtree's node count before any row of it is
// written, so such an insert records its tokens and walks them twice.
// When nothing lies past the insertion point — every load, and an
// append at the document's end — the walk streams. Either way the
// ancestors' sizes are raised after the walk; the document node's row
// (pre 0) follows its subtree, so a load into an empty database writes
// it last.
func (iv *Interval) Insert(ctx context.Context, db sqldb.Writer, parentID int64, position int, src xmldom.TokenSource) error {
	prow, err := db.Query(`SELECT level, size, kind FROM accel WHERE pre = ?`, sqldb.NewInt(parentID))
	if err != nil {
		return err
	}
	docRow := parentID == 0 && prow.Len() == 0 // the document node of an empty database
	var pLevel, pSize int64
	if !docRow {
		if prow.Len() == 0 || prow.Data[0][2].Text() != "elem" && prow.Data[0][2].Text() != "doc" {
			return errNoElement("interval", parentID)
		}
		pLevel, pSize = prow.Data[0][0].Int(), prow.Data[0][1].Int()
	}
	// The parent's attributes, then its children, in order.
	rows, err := db.Query(`SELECT pre, kind FROM accel WHERE parent = ? ORDER BY ordinal`, sqldb.NewInt(parentID))
	if err != nil {
		return err
	}
	nAttrs := 0
	for nAttrs < rows.Len() && rows.Data[nAttrs][1].Text() == "attr" {
		nAttrs++
	}
	// Insertion boundary: the pre of the child currently at `position`,
	// or the end of the parent's region for an append.
	kids := rows.Data[nAttrs:]
	position = min(position, len(kids))
	boundary := parentID + pSize + 1
	if position < len(kids) {
		boundary = kids[position][0].Int()
	}
	at := walkAt{parent: parentID, level: int(pLevel), next: boundary, ordinal: int64(nAttrs + position + 1)}
	if last, err := db.QueryScalar(`SELECT MAX(pre) FROM accel`); err != nil {
		return err
	} else if !last.IsNull() && last.Int() >= boundary {
		tape, err := recordTokens(src)
		if err != nil {
			return err
		}
		k, _, err := streamWalk(tape, discardSink{}, nil, at)
		if err != nil {
			return err
		}
		// Document-wide renumbering; following siblings shift ordinal.
		if _, err := db.Exec(`UPDATE accel SET pre = pre + ? WHERE pre >= ?`, sqldb.NewInt(k), sqldb.NewInt(boundary)); err != nil {
			return err
		}
		if _, err := db.Exec(`UPDATE accel SET parent = parent + ? WHERE parent >= ?`, sqldb.NewInt(k), sqldb.NewInt(boundary)); err != nil {
			return err
		}
		if _, err := db.Exec(`UPDATE accel SET ordinal = ordinal + 1 WHERE parent = ? AND ordinal >= ?`,
			sqldb.NewInt(parentID), sqldb.NewInt(at.ordinal)); err != nil {
			return err
		}
		src = tape
	}

	// The subtree's rows take contiguous pre numbers from boundary.
	s := &intervalSink{b: newBatcher(ctx, db, "accel")}
	nodes, _, err := streamWalk(src, s, nil, at)
	if err != nil {
		return err
	}
	if docRow {
		// pre 0, no parent, the whole document as its subtree.
		if err := s.b.add([]sqldb.Value{sqldb.NewInt(0), sqldb.Null, sqldb.NewInt(nodes), sqldb.NewInt(0),
			sqldb.NewInt(1), sqldb.NewText("doc"), sqldb.Null, sqldb.Null}); err != nil {
			return err
		}
		return s.b.flush()
	}
	if err := s.b.flush(); err != nil {
		return err
	}
	// The parent and each of its ancestors gain the subtree's nodes.
	for cur := sqldb.NewInt(parentID); !cur.IsNull(); {
		if _, err := db.Exec(`UPDATE accel SET size = size + ? WHERE pre = ?`, sqldb.NewInt(nodes), cur); err != nil {
			return err
		}
		if cur, err = db.QueryScalar(`SELECT parent FROM accel WHERE pre = ?`, cur); err != nil {
			return err
		}
	}
	return nil
}

// tokenTape records a token stream so it can be walked twice: after
// TokEOF it starts over. Attrs are copied, since a Tokenizer reuses
// them.
type tokenTape struct {
	toks []xmldom.Token
	next int
}

func recordTokens(src xmldom.TokenSource) (*tokenTape, error) {
	t := &tokenTape{}
	for {
		tok, err := src.Next()
		if err != nil {
			return nil, err
		}
		tok.Attrs = slices.Clone(tok.Attrs)
		t.toks = append(t.toks, tok)
		if tok.Kind == xmldom.TokEOF {
			return t, nil
		}
	}
}

// Next implements xmldom.TokenSource.
func (t *tokenTape) Next() (xmldom.Token, error) {
	tok := t.toks[t.next]
	t.next = (t.next + 1) % len(t.toks)
	return tok, nil
}

// discardSink keeps nothing: a walk into it only counts.
type discardSink struct{}

func (discardSink) open(*streamFrame) error { return nil }
func (discardSink) node(*shredNode) error   { return nil }
