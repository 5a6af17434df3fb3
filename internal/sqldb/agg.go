package sqldb

// Hash aggregation operator and the aggregate-function state machines.

type aggSpec struct {
	name     string       // COUNT, SUM, AVG, MIN, MAX
	arg      compiledExpr // nil for COUNT(*)
	distinct bool
	// exact marks aggregates whose partial states merge without any
	// result drift, making them eligible for parallel partial
	// aggregation: COUNT/MIN/MAX always, SUM/AVG only when the argument
	// is statically integer-typed (float addition is not associative),
	// and never DISTINCT (the dedup set is per-partition).
	exact bool
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
	if v.t == TypeFloat {
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

// merge folds another partial state into s. Only reached for exact
// aggregates (see aggSpec.exact), so DISTINCT sets never need merging
// and any float sums came from explicit float inputs.
func (s *aggState) merge(o *aggState) {
	s.count += o.count
	switch {
	case !s.isFloat && o.isFloat:
		s.sumF = float64(s.sumI) + o.sumF
		s.sumI = 0
		s.isFloat = true
	case s.isFloat && o.isFloat:
		s.sumF += o.sumF
	case s.isFloat:
		s.sumF += float64(o.sumI)
	default:
		s.sumI += o.sumI
	}
	if o.hasVal {
		if !s.hasVal {
			s.min, s.max = o.min, o.max
			s.hasVal = true
		} else {
			if Compare(o.min, s.min) < 0 {
				s.min = o.min
			}
			if Compare(o.max, s.max) > 0 {
				s.max = o.max
			}
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
	tbl := ctx.resolveTable(n.tbl)
	idx := resolveIndex(tbl, n.idx)
	v := Null
	if rid, ok := idx.tree.extreme(n.max); ok {
		v = tbl.row(rid)[idx.def.Columns[0]]
	}
	return &sliceIter{rows: [][]Value{{v}}}, nil
}

func (n *aggNode) open(ctx *evalCtx) (rowIter, error) {
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

	// Global aggregation over an empty input produces one row.
	if len(n.groupBy) == 0 && len(groups) == 0 {
		groups[""] = &group{states: newStates()}
		order = append(order, "")
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
	return &sliceIter{rows: out}, nil
}
