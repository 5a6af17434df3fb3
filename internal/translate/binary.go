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
	return compilePath(binaryLayout{opt: opt}, p)
}

// binaryLayout is the partitioned layout, anchored at a node in
// partition table.
type binaryLayout struct {
	nodeValue
	byID
	opt   BinaryOptions
	table string
}

func (binaryLayout) scheme() string { return "binary" }
func (binaryLayout) chain(c []hop, pre, post string) (string, error) {
	return walkPath(c, "b", true, pre, post)
}

// expand expands the path along the catalog's label paths, each hop in
// its label's partition (a label without one has no rows, and neither
// has its chain).
func (l binaryLayout) expand(steps []xpath.Step) ([][]hop, error) {
	chains, err := l.opt.Catalog.chains(steps, "binary", nil)
	if err != nil {
		return nil, err
	}
	if len(chains) > 0 && slices.ContainsFunc(steps, func(s xpath.Step) bool {
		return s.Test.Kind == xpath.TestWildcard && slices.ContainsFunc(s.Preds, positional)
	}) {
		// A partition holds one label: it ranks a node among its
		// same-label siblings, never among all elements.
		return nil, unsupported("binary", "positional predicates on wildcard steps")
	}
	return slices.DeleteFunc(chains, func(c []hop) bool { return !l.partitions(c) }), nil
}

// partitions anchors each hop of c at its label's partition, reporting
// whether every label has one.
func (l binaryLayout) partitions(c []hop) bool {
	for k := range c {
		tbl, ok := l.partition(c[k].label)
		if !ok {
			return false
		}
		c[k].at = binaryLayout{opt: l.opt, table: tbl}
	}
	return true
}

// partition resolves the partition of one label segment.
func (l binaryLayout) partition(seg string) (string, bool) {
	switch {
	case seg == "#text":
		return "bt_text", true
	case strings.HasPrefix(seg, "@"):
		return l.opt.AttrTable(seg[1:])
	default:
		return l.opt.ElemTable(seg)
	}
}

// step joins the hop's partition below the context node; the partition
// fixes the label, so there is no node test.
func (l binaryLayout) step(_ hop, a, cur string) (string, []string) {
	return l.table + " " + a, []string{childEdge(a, cur)}
}

func (binaryLayout) test(string, hop) string        { return "" }
func (binaryLayout) result(_ hop, w *walked) string { return edgeResult(w) }

// position counts within the context's partition: its same-label
// siblings.
func (l binaryLayout) position(cur string, _ xpath.NodeTest) string {
	return fmt.Sprintf("(SELECT COUNT(*) FROM %s s WHERE s.source = %s.source AND s.ordinal < %s.ordinal) + 1",
		l.table, cur, cur)
}

// predPath builds the EXISTS body of a relative predicate path; each
// step knows its partition directly.
func (l binaryLayout) predPath(p *xpath.Path, cur string) (predPath, error) {
	if err := predSteps("binary", p); err != nil {
		return predPath{}, err
	}
	hops := make([]hop, len(p.Steps))
	for i, s := range p.Steps {
		label, err := predLabel("binary", s)
		if err != nil {
			return predPath{}, err
		}
		hops[i] = hop{axis: s.Axis, label: label}
		if !l.partitions(hops[i : i+1]) {
			// The label never occurred: the path selects nothing.
			return nonePath, nil
		}
	}
	return walkPred(hops, cur, "p", "target"), nil
}
