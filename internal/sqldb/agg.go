package sqldb

// Hash aggregation operator and the aggregate-function state machines.

type aggSpec struct {
	name     string       // COUNT, SUM, AVG, MIN, MAX
	arg      compiledExpr // nil for COUNT(*)
	distinct bool
}

type aggNode struct {
	in      planNode
	groupBy []compiledExpr
	aggs    []aggSpec
	schema  schema
}

func (n *aggNode) sch() schema { return n.schema }

func (n *aggNode) estRows() float64 {
	if len(n.groupBy) == 0 {
		return 1
	}
	return n.in.estRows()/4 + 1
}

type aggState struct {
	count   int64
	sumI    int64
	sumF    float64
	isFloat bool
	hasVal  bool
	min     Value
	max     Value
	seen    map[string]bool // for DISTINCT
}

func (s *aggState) add(v Value, distinct bool) {
	if v.IsNull() {
		return
	}
	if distinct {
		if s.seen == nil {
			s.seen = map[string]bool{}
		}
		k := distinctKey([]Value{v})
		if s.seen[k] {
			return
		}
		s.seen[k] = true
	}
	s.count++
	if v.Type() == TypeFloat {
		if !s.isFloat {
			s.sumF = float64(s.sumI) + s.sumF
			s.isFloat = true
		}
		s.sumF += v.f()
	} else if s.isFloat {
		s.sumF += v.Float()
	} else {
		s.sumI += v.Int()
	}
	if !s.hasVal {
		s.min, s.max = v, v
		s.hasVal = true
	} else {
		if Compare(v, s.min) < 0 {
			s.min = v
		}
		if Compare(v, s.max) > 0 {
			s.max = v
		}
	}
}

func (s *aggState) result(name string) Value {
	switch name {
	case "COUNT":
		return NewInt(s.count)
	case "SUM":
		if s.count == 0 {
			return Null
		}
		if s.isFloat {
			return NewFloat(s.sumF)
		}
		return NewInt(s.sumI)
	case "AVG":
		if s.count == 0 {
			return Null
		}
		sum := s.sumF
		if !s.isFloat {
			sum = float64(s.sumI)
		}
		return NewFloat(sum / float64(s.count))
	case "MIN":
		if !s.hasVal {
			return Null
		}
		return s.min
	case "MAX":
		if !s.hasVal {
			return Null
		}
		return s.max
	}
	return Null
}

// indexMinMaxNode answers a whole-table MIN(c) or MAX(c) from an index
// led by c: one descent of the snapshot's B-tree to the extreme key's
// lowest rowid, then that one row's c (which may fault its heap page in).
// See indexMinMax for when the planner picks it.
type indexMinMaxNode struct {
	tbl    *table
	idx    *tableIndex
	max    bool
	schema schema
}

func (n *indexMinMaxNode) sch() schema      { return n.schema }
func (n *indexMinMaxNode) estRows() float64 { return 1 }

func (n *indexMinMaxNode) fn() string {
	if n.max {
		return "MAX"
	}
	return "MIN"
}

func (n *indexMinMaxNode) open(ctx *evalCtx) (rowIter, error) {
	return openBuilt(ctx, n.extreme)
}

func (n *indexMinMaxNode) extreme(ctx *evalCtx) ([][]Value, error) {
	tbl := ctx.resolveTable(n.tbl)
	idx := resolveIndex(tbl, n.idx)
	v := Null
	if rid, ok := idx.tree.extreme(n.max); ok {
		v = tbl.row(rid, nil)[idx.def.Columns[0]]
	}
	return [][]Value{{v}}, nil
}

// indexCountNode answers COUNT(*) over an index range that consumes
// every condition of the statement: it counts the range's entries on
// the B-tree and reads no heap row. The probe cursor lives across
// rewinds, so a correlated count — a positional step's sibling count,
// one per outer row — seeks from the last one's landing and counts
// from there (see probeCursor and btreeCursor.countTo). See indexCount
// for when the planner picks it.
type indexCountNode struct {
	scan   *indexScanNode // the range; its filter is nil
	schema schema         // one column per COUNT(*)
}

func (n *indexCountNode) sch() schema      { return n.schema }
func (n *indexCountNode) estRows() float64 { return 1 }

func (n *indexCountNode) open(ctx *evalCtx) (rowIter, error) {
	it := &indexCountIter{node: n, ctx: ctx, row: make([]Value, len(n.schema)), stat: ctx.opStat(n)}
	if err := it.rewind(); err != nil {
		return nil, err
	}
	return it, nil
}

type indexCountIter struct {
	node *indexCountNode
	ctx  *evalCtx
	cur  probeCursor
	buf  probeBuf
	row  []Value
	done bool
	stat *OpStats
}

func (it *indexCountIter) rewind() error {
	scan := it.node.scan
	tree := resolveIndex(it.ctx.resolveTable(scan.tbl), scan.idx).tree
	stop, err := scan.seek(it.ctx, nil, tree, &it.buf, &it.cur, it.stat)
	if err != nil {
		return err
	}
	v := NewInt(int64(it.cur.countTo(&stop)))
	for i := range it.row {
		it.row[i] = v
	}
	it.done = false
	return nil
}

func (it *indexCountIter) next() ([]Value, error) {
	if it.done {
		return nil, nil
	}
	it.done = true
	return it.row, nil
}

func (it *indexCountIter) close() {}

func (n *aggNode) open(ctx *evalCtx) (rowIter, error) {
	if len(n.groupBy) > 0 {
		return openBuilt(ctx, n.groups)
	}
	in, err := openNode(ctx, n.in)
	if err != nil {
		return nil, err
	}
	it := &globalAggIter{node: n, ctx: ctx, in: in, states: make([]aggState, len(n.aggs)), row: make([]Value, len(n.aggs))}
	if err := it.fold(); err != nil {
		return nil, err
	}
	return it, nil
}

// globalAggIter is an aggregate without GROUP BY: one fold of the input
// into one state per aggregate, no group map. A rewind folds again into
// the same states and output row, so a correlated COUNT(*) costs no
// allocation per outer row.
type globalAggIter struct {
	node   *aggNode
	ctx    *evalCtx
	in     rowIter
	states []aggState
	row    []Value
	done   bool
}

// fold drains the input into the states and closes it, so no page stays
// pinned while the result is consumed.
func (it *globalAggIter) fold() error {
	defer it.in.close()
	n := it.node
	clear(it.states)
	it.done = false
	for rows := 0; ; rows++ {
		row, err := it.in.next()
		if err != nil {
			return err
		}
		if row == nil {
			break
		}
		if rows == 0 {
			// What the group map charged for its one group.
			if err := it.ctx.mem.charge(24 + int64(len(n.aggs))*64 + 48); err != nil {
				return err
			}
		}
		for i, spec := range n.aggs {
			if spec.arg == nil { // COUNT(*)
				it.states[i].count++
				continue
			}
			v, err := spec.arg(it.ctx, row)
			if err != nil {
				return err
			}
			it.states[i].add(v, spec.distinct)
		}
	}
	for i, spec := range n.aggs {
		it.row[i] = it.states[i].result(spec.name)
	}
	return nil
}

func (it *globalAggIter) next() ([]Value, error) {
	if it.done {
		return nil, nil
	}
	it.done = true
	return it.row, nil
}

func (it *globalAggIter) rewind() error {
	if err := it.in.rewind(); err != nil {
		return err
	}
	return it.fold()
}

func (it *globalAggIter) close() { it.in.close() }

// groups drains the input into one aggregate state per GROUP BY key and
// returns a row per group, in order of first occurrence.
func (n *aggNode) groups(ctx *evalCtx) ([][]Value, error) {
	type group struct {
		keys   []Value
		states []*aggState
	}
	groups := map[string]*group{}
	var order []string // deterministic output order (first occurrence)

	newStates := func() []*aggState {
		st := make([]*aggState, len(n.aggs))
		for i := range st {
			st[i] = &aggState{}
		}
		return st
	}

	in, err := openNode(ctx, n.in)
	if err != nil {
		return nil, err
	}
	defer in.close()
	for {
		row, err := in.next()
		if err != nil {
			return nil, err
		}
		if row == nil {
			break
		}
		keys := make([]Value, len(n.groupBy))
		for i, g := range n.groupBy {
			keys[i], err = g(ctx, row)
			if err != nil {
				return nil, err
			}
		}
		k := distinctKey(keys)
		grp := groups[k]
		if grp == nil {
			if err := ctx.mem.charge(valuesBytes(keys) + int64(len(k))*2 + int64(len(n.aggs))*64 + 48); err != nil {
				return nil, err
			}
			grp = &group{keys: keys, states: newStates()}
			groups[k] = grp
			order = append(order, k)
		}
		for i, spec := range n.aggs {
			if spec.arg == nil { // COUNT(*)
				grp.states[i].count++
				continue
			}
			v, err := spec.arg(ctx, row)
			if err != nil {
				return nil, err
			}
			grp.states[i].add(v, spec.distinct)
		}
	}

	out := make([][]Value, 0, len(order))
	for _, k := range order {
		grp := groups[k]
		row := make([]Value, 0, len(n.groupBy)+len(n.aggs))
		row = append(row, grp.keys...)
		for i, spec := range n.aggs {
			row = append(row, grp.states[i].result(spec.name))
		}
		out = append(out, row)
	}
	return out, nil
}
