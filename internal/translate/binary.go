package translate

import (
	"fmt"
	"slices"
	"strings"

	"repro/internal/xpath"
)

// BinaryOptions parameterizes the Binary (attribute-partitioned)
// translation. The edge table is split by label: element edges with
// label L live in ElemTable(L), attribute edges in AttrTable(L), text
// edges in bt_text. Every partition has columns
// (source, ordinal, target, value).
type BinaryOptions struct {
	// Catalog lists the concrete label paths of the loaded documents;
	// it drives descendant-step expansion (the path index role).
	Catalog *PathCatalog
	// ElemTable maps an element label to its partition's table name
	// (empty result means the label never occurred: no rows).
	ElemTable func(label string) (string, bool)
	// AttrTable maps an attribute label to its partition.
	AttrTable func(label string) (string, bool)
}

// Binary translates XPath to SQL over the partitioned layout. Because a
// partition fixes the label, every step with a name test touches only
// its own (smaller) table; wildcard and descendant steps are expanded
// against the path catalog into concrete label chains.
func Binary(p *xpath.Path, opt BinaryOptions) (string, error) {
	if opt.Catalog == nil || opt.ElemTable == nil || opt.AttrTable == nil {
		return "", fmt.Errorf("translate: binary options missing catalog or table maps")
	}
	if !p.Absolute {
		return "", unsupported("binary", "relative paths")
	}
	if len(p.Steps) == 0 {
		return "", unsupported("binary", "the bare document path /")
	}
	pat, err := patternOf(p.Steps, "binary")
	if err != nil {
		return "", err
	}
	matches := opt.Catalog.Expand(pat)
	if len(matches) == 0 {
		// No concrete path matches: an empty but valid query.
		return "SELECT 0 AS id, NULL AS val WHERE 1 = 0", nil
	}
	var parts []string
	for _, m := range matches {
		q, err := binaryChainSQL(p.Steps, m, opt)
		if err != nil {
			return "", err
		}
		parts = append(parts, q)
	}
	if len(parts) == 1 {
		return parts[0] + " ORDER BY id", nil
	}
	return "SELECT DISTINCT id, val FROM (" + strings.Join(parts, " UNION ALL ") + ") u ORDER BY id", nil
}

// binaryTableFor resolves the partition for one path segment.
func binaryTableFor(seg string, opt BinaryOptions) (string, bool) {
	switch {
	case seg == "#text":
		return "bt_text", true
	case strings.HasPrefix(seg, "@"):
		return opt.AttrTable(seg[1:])
	default:
		return opt.ElemTable(seg)
	}
}

// binaryChainSQL renders one concrete label chain as a join over the
// per-label partitions. Every segment of the concrete path becomes one
// hop; predicates of the original steps attach at their matched segment.
func binaryChainSQL(steps []xpath.Step, m CatalogMatch, opt BinaryOptions) (string, error) {
	// predsAt[k] collects predicates anchored at segment k.
	predsAt := make(map[int][]xpath.Expr)
	pi := 0
	for _, s := range steps {
		if s.Test.Kind == xpath.TestWildcard && slices.ContainsFunc(s.Preds, positional) {
			// A partition holds one label: it ranks a node among its
			// same-label siblings, never among all elements.
			return "", unsupported("binary", "positional predicates on wildcard steps")
		}
		switch s.Axis {
		case xpath.AxisChild, xpath.AxisDescendant, xpath.AxisAttribute:
			seg := m.StepSeg[pi]
			predsAt[seg] = append(predsAt[seg], s.Preds...)
			pi++
		default:
			return "", unsupported("binary", "axis "+s.Axis.String())
		}
	}

	var from []string
	var where []string
	aliases := make([]string, len(m.Segments))
	tables := make([]string, len(m.Segments))
	for k, seg := range m.Segments {
		tbl, ok := binaryTableFor(seg, opt)
		if !ok {
			return "SELECT 0 AS id, NULL AS val WHERE 1 = 0", nil
		}
		a := fmt.Sprintf("b%d", k+1)
		aliases[k], tables[k] = a, tbl
		from = append(from, tbl+" "+a)
		src := "0"
		if k > 0 {
			src = aliases[k-1] + ".target"
		}
		where = append(where, fmt.Sprintf("%s.source = %s", a, src))
	}
	for k := range m.Segments {
		for _, pe := range predsAt[k] {
			// A partition holds one label, so the step's node test is
			// implied (wildcards with positions are refused above).
			c, err := compilePred(binaryLayout{opt: opt, table: tables[k]}, pe, aliases[k], xpath.NodeTest{})
			if err != nil {
				return "", err
			}
			where = append(where, c)
		}
	}
	last := aliases[len(aliases)-1]
	sql := "SELECT " + last + ".target AS id, " + last + ".value AS val FROM " + strings.Join(from, ", ")
	if len(where) > 0 {
		sql += " WHERE " + strings.Join(where, " AND ")
	}
	return sql, nil
}

// binaryLayout is the partitioned layout as the predicate compiler sees
// it, anchored at a context node in partition table.
type binaryLayout struct {
	nodeValue
	opt   BinaryOptions
	table string
}

func (binaryLayout) scheme() string { return "binary" }

// position counts within the context's partition: its same-label
// siblings.
func (l binaryLayout) position(cur string, _ xpath.NodeTest) string {
	return fmt.Sprintf("(SELECT COUNT(*) FROM %s s WHERE s.source = %s.source AND s.ordinal < %s.ordinal) + 1",
		l.table, cur, cur)
}

// predPath builds the EXISTS body of a relative predicate path of
// child and attribute steps with name tests and text() (each step knows
// its partition directly).
func (l binaryLayout) predPath(p *xpath.Path, cur string) (predPath, error) {
	if p.Absolute {
		return predPath{}, unsupported("binary", "absolute paths inside predicates")
	}
	var from []string
	var where []string
	prev := cur
	for i, s := range p.Steps {
		if len(s.Preds) > 0 {
			return predPath{}, unsupported("binary", "nested predicates")
		}
		var tbl string
		var ok bool
		switch {
		case s.Axis == xpath.AxisChild && s.Test.Kind == xpath.TestName:
			tbl, ok = l.opt.ElemTable(s.Test.Name)
		case s.Axis == xpath.AxisChild && s.Test.Kind == xpath.TestText:
			tbl, ok = "bt_text", true
		case s.Axis == xpath.AxisAttribute && s.Test.Kind == xpath.TestName:
			tbl, ok = l.opt.AttrTable(s.Test.Name)
		default:
			return predPath{}, unsupported("binary", "predicate step "+s.Axis.String())
		}
		if !ok {
			// The label never occurred: the path selects nothing.
			return nonePath, nil
		}
		a := fmt.Sprintf("%sp%d", cur, i+1)
		from = append(from, tbl+" "+a)
		where = append(where, fmt.Sprintf("%s.source = %s.target", a, prev))
		prev = a
	}
	if prev == cur {
		return predPath{}, unsupported("binary", "empty predicate path")
	}
	q := "SELECT 1 FROM " + strings.Join(from, ", ") + " WHERE " + strings.Join(where, " AND ")
	return predPath{q: q, val: prev + ".value", order: prev + ".target"}, nil
}
