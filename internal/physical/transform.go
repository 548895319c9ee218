package physical

import (
	"fmt"
	"strings"

	"repro/internal/sqlx"
)

// TransKind identifies one of the paper's relaxation transformations.
type TransKind int

// Transformation kinds (§3.1).
const (
	TransMergeIndexes TransKind = iota
	TransSplitIndexes
	TransPrefixIndex
	TransPromoteClustered
	TransRemoveIndex
	TransMergeViews
	TransRemoveView
)

func (k TransKind) String() string {
	switch k {
	case TransMergeIndexes:
		return "merge-indexes"
	case TransSplitIndexes:
		return "split-indexes"
	case TransPrefixIndex:
		return "prefix-index"
	case TransPromoteClustered:
		return "promote-clustered"
	case TransRemoveIndex:
		return "remove-index"
	case TransMergeViews:
		return "merge-views"
	case TransRemoveView:
		return "remove-view"
	default:
		return "unknown"
	}
}

// Transformation relaxes a configuration: it replaces one or two physical
// structures with smaller (generally less efficient) ones. Applying a
// transformation never mutates the source configuration.
type Transformation struct {
	Kind TransKind

	// Index transformations.
	I1, I2    *Index   // inputs (I2 nil for unary transformations)
	PrefixLen int      // for TransPrefixIndex
	NewIdx    []*Index // indexes the transformation adds

	// View transformations.
	V1, V2   *View    // inputs
	VM       *View    // merged view (EstRows estimated by the caller)
	Promoted []*Index // indexes promoted from V1/V2 onto VM

	// id caches the canonical identity. Enumerate seals it while still
	// single-threaded; the search then reads the ID every iteration for
	// penalty caching and dedup without rebuilding the string. Hand-built
	// transformations with an empty id recompute per call (no lazy store —
	// that would race once the transformation is shared across workers).
	id string
}

// ID is a stable identity for caching penalties across iterations.
func (t *Transformation) ID() string {
	if t.id != "" {
		return t.id
	}
	return t.buildID()
}

func (t *Transformation) buildID() string {
	var sb strings.Builder
	sb.WriteString(t.Kind.String())
	if t.I1 != nil {
		sb.WriteString("|" + t.I1.ID())
	}
	if t.I2 != nil {
		sb.WriteString("|" + t.I2.ID())
	}
	if t.Kind == TransPrefixIndex {
		fmt.Fprintf(&sb, "|n=%d", t.PrefixLen)
	}
	if t.V1 != nil {
		sb.WriteString("|" + t.V1.Signature())
	}
	if t.V2 != nil {
		sb.WriteString("|" + t.V2.Signature())
	}
	return sb.String()
}

func (t *Transformation) String() string {
	switch t.Kind {
	case TransMergeIndexes:
		return fmt.Sprintf("merge(%s, %s) -> %s", t.I1, t.I2, t.NewIdx[0])
	case TransSplitIndexes:
		return fmt.Sprintf("split(%s, %s) -> %d indexes", t.I1, t.I2, len(t.NewIdx))
	case TransPrefixIndex:
		return fmt.Sprintf("prefix(%s, %d) -> %s", t.I1, t.PrefixLen, t.NewIdx[0])
	case TransPromoteClustered:
		return fmt.Sprintf("promote(%s)", t.I1)
	case TransRemoveIndex:
		return fmt.Sprintf("remove(%s)", t.I1)
	case TransMergeViews:
		return fmt.Sprintf("merge-views(%s, %s) -> %s", t.V1.Name, t.V2.Name, t.VM.Name)
	case TransRemoveView:
		return fmt.Sprintf("remove-view(%s)", t.V1.Name)
	default:
		return "transformation"
	}
}

// RemovedIndexIDs returns the IDs of indexes the transformation removes
// from its source configuration (directly or by view-removal cascade,
// given that cascade is resolved at Apply time).
func (t *Transformation) RemovedIndexIDs() []string {
	var out []string
	if t.I1 != nil {
		out = append(out, t.I1.ID())
	}
	if t.I2 != nil {
		out = append(out, t.I2.ID())
	}
	return out
}

// RemovedViewNames returns the names of views the transformation removes.
func (t *Transformation) RemovedViewNames() []string {
	var out []string
	switch t.Kind {
	case TransMergeViews:
		out = append(out, t.V1.Name, t.V2.Name)
	case TransRemoveView:
		out = append(out, t.V1.Name)
	}
	return out
}

// Apply produces the relaxed configuration. For view transformations the
// affected views' indexes cascade per §3.1.2.
func (t *Transformation) Apply(c *Configuration) *Configuration {
	n, _ := t.ApplySized(c, nil)
	return n
}

// ApplySized is Apply that also returns the space the transformation
// saves under sizer s, Space(c) − Space(result): the sizes of the indexes
// it removes (cascades included) minus those of the indexes it adds, so
// the cost is proportional to the change, not to the configuration. With
// a nil sizer the saving is 0.
func (t *Transformation) ApplySized(c *Configuration, s *Sizer) (*Configuration, int64) {
	n := c.Clone()
	n.editing = true
	defer n.endEdit()
	var saved int64
	remove := func(id string) {
		if ix := n.removeIndex(id); ix != nil && s != nil {
			saved += s.IndexBytes(ix, c)
		}
	}
	add := func(ix *Index) {
		if ix, added := n.addIndex(ix); added && s != nil {
			saved -= s.IndexBytes(ix, n)
		}
	}
	removeView := func(name string) {
		cascaded, _ := n.removeView(name)
		if s == nil {
			return
		}
		for _, e := range cascaded {
			saved += s.IndexBytes(e.ix, c)
		}
	}
	switch t.Kind {
	case TransMergeIndexes, TransSplitIndexes, TransPrefixIndex:
		remove(t.I1.ID())
		if t.I2 != nil {
			remove(t.I2.ID())
		}
		for _, ix := range t.NewIdx {
			add(ix)
		}
	case TransPromoteClustered:
		remove(t.I1.ID())
		for _, ix := range t.NewIdx {
			add(ix)
		}
	case TransRemoveIndex:
		remove(t.I1.ID())
	case TransMergeViews:
		removeView(t.V1.Name)
		removeView(t.V2.Name)
		vm := n.AddView(t.VM)
		for _, ix := range t.Promoted {
			// Re-target in case signature dedup picked an existing name.
			if !strings.EqualFold(ix.Table, vm.Name) {
				ix = ix.Clone()
				ix.Table = vm.Name
				ix.id = ix.buildID()
			}
			add(ix)
		}
	case TransRemoveView:
		removeView(t.V1.Name)
	}
	return n, saved
}

// EnumerateOptions tunes transformation enumeration.
type EnumerateOptions struct {
	// WidthOf supplies base-column widths for view merging; required when
	// the configuration contains views.
	WidthOf func(sqlx.ColRef) int
	// NoViews suppresses view transformations (index-only tuning).
	NoViews bool
	// HeapTables lists base tables stored as heaps (promotion to
	// clustered applies only there, since clustered-PK tables always
	// carry a required clustered index).
	HeapTables map[string]bool
}

// Enumerate generates every transformation applicable to c, per §3.1:
// index merges (both orders), splits, prefixes, promotions, removals, view
// merges, and view removals. Required (constraint) indexes are untouchable.
// The result is deterministic: inputs are drawn from sorted accessors.
func Enumerate(c *Configuration, opts EnumerateOptions) []*Transformation {
	out := enumerate(c, opts)
	// Seal the identity strings while enumeration is still single-threaded;
	// after this the transformations may be shared read-only across workers.
	for _, t := range out {
		t.id = t.buildID()
	}
	return out
}

func enumerate(c *Configuration, opts EnumerateOptions) []*Transformation {
	var out []*Transformation
	indexes := c.Indexes()

	// Group indexes by table for pairwise transformations.
	byTable := map[string][]*Index{}
	for _, ix := range indexes {
		key := strings.ToLower(ix.Table)
		byTable[key] = append(byTable[key], ix)
	}
	tables := make([]string, 0, len(byTable))
	for t := range byTable {
		tables = append(tables, t)
	}
	sortStrings(tables)

	for _, t := range tables {
		group := byTable[t]
		for i, i1 := range group {
			if i1.Required {
				continue
			}
			// Unary: prefixes.
			if !i1.Clustered {
				for n := 1; n <= len(i1.Keys); n++ {
					if p := PrefixIndex(i1, n); p != nil {
						out = append(out, &Transformation{Kind: TransPrefixIndex, I1: i1, PrefixLen: n, NewIdx: []*Index{p}})
					}
				}
			}
			// Unary: promotion to clustered (heap tables and views only).
			promotable := c.View(i1.Table) != nil || (opts.HeapTables != nil && opts.HeapTables[strings.ToLower(i1.Table)])
			if !i1.Clustered && promotable && c.ClusteredOn(i1.Table) == nil {
				if p := PromoteToClustered(i1); p != nil {
					out = append(out, &Transformation{Kind: TransPromoteClustered, I1: i1, NewIdx: []*Index{p}})
				}
			}
			// Unary: removal.
			out = append(out, &Transformation{Kind: TransRemoveIndex, I1: i1})

			// Binary: merges and splits with every later index.
			for _, i2 := range group[i+1:] {
				if i2.Required || i1.Clustered || i2.Clustered {
					continue
				}
				addMerge(&out, i1, i2)
				addMerge(&out, i2, i1)
				if common, r1, r2 := SplitIndexes(i1, i2); common != nil {
					nw := []*Index{common}
					if r1 != nil {
						nw = append(nw, r1)
					}
					if r2 != nil {
						nw = append(nw, r2)
					}
					out = append(out, &Transformation{Kind: TransSplitIndexes, I1: i1, I2: i2, NewIdx: nw})
				}
			}
		}
	}

	if opts.NoViews {
		return out
	}
	views := c.Views()
	for i, v1 := range views {
		out = append(out, &Transformation{Kind: TransRemoveView, V1: v1})
		for _, v2 := range views[i+1:] {
			if opts.WidthOf == nil {
				continue
			}
			vm := MergeViews(v1, v2, opts.WidthOf)
			if vm == nil {
				continue
			}
			tr := &Transformation{Kind: TransMergeViews, V1: v1, V2: v2, VM: vm}
			for _, ix := range c.IndexesOn(v1.Name) {
				if p := PromoteIndexToView(ix, v1, vm); p != nil {
					tr.Promoted = append(tr.Promoted, p)
				}
			}
			for _, ix := range c.IndexesOn(v2.Name) {
				if p := PromoteIndexToView(ix, v2, vm); p != nil {
					tr.Promoted = append(tr.Promoted, p)
				}
			}
			// A materialized view needs a clustered index; ensure one
			// survives promotion.
			hasClustered := false
			for _, p := range tr.Promoted {
				if p.Clustered {
					hasClustered = true
					break
				}
			}
			if !hasClustered {
				keys := vm.AllColumnNames()
				if len(keys) > 0 {
					tr.Promoted = append(tr.Promoted, NewIndex(vm.Name, keys[:1], keys[1:], true))
				}
			}
			out = append(out, tr)
		}
	}
	return out
}

func addMerge(out *[]*Transformation, i1, i2 *Index) {
	// A merge whose result equals one of its inputs still removes the
	// other index, so it is kept; it relaxes differently from plain
	// removal because the survivor is recorded as replacing both.
	if m := MergeIndexes(i1, i2); m != nil {
		*out = append(*out, &Transformation{Kind: TransMergeIndexes, I1: i1, I2: i2, NewIdx: []*Index{m}})
	}
}

func sortStrings(s []string) {
	for i := 1; i < len(s); i++ {
		for j := i; j > 0 && s[j] < s[j-1]; j-- {
			s[j], s[j-1] = s[j-1], s[j]
		}
	}
}
