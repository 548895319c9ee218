package physical

import (
	"strings"
	"sync"

	"repro/internal/storage"
)

// WidthResolver supplies row counts and column widths for base tables. The
// sizer layers the configuration's views on top of it, so indexes over
// views are sized from the views' estimated cardinalities (§3.3.1).
type WidthResolver interface {
	// TableRows returns the row count of a base table.
	TableRows(table string) (int64, bool)
	// ColWidth returns the average width in bytes of a base-table column.
	ColWidth(table, col string) (int, bool)
	// TableCols returns all column names of a base table.
	TableCols(table string) []string
}

// Sizer estimates the storage consumed by indexes, views, and whole
// configurations following the B-tree model of §3.3.1. It memoizes each
// index's shape under its sizing key: the index ID, plus the owning view's
// estimated cardinality for an index over a view, so a re-estimated view
// is re-sized. The memo is a sync.Map: a warm lookup neither locks nor
// writes shared memory, so the tuner's concurrent penalty and evaluation
// workers never contend on it.
type Sizer struct {
	base   WidthResolver
	shapes sync.Map // index ID → indexShape
}

// indexShape is everything the sizer answers about one index, computed
// over a view of viewRows estimated rows (-1 for a base-table index); a
// lookup under another cardinality recomputes and replaces it. An index
// whose table or columns cannot be resolved has zero rows and bytes, one
// leaf page and height zero.
type indexShape struct {
	viewRows, rows, leafPages, bytes int64
	height                           int
}

// NewSizer returns a sizer over the given base resolver.
func NewSizer(base WidthResolver) *Sizer {
	return &Sizer{base: base}
}

// shape returns the memoized shape of ix within cfg (cfg supplies view
// cardinalities; it may be nil for base-table indexes).
func (s *Sizer) shape(ix *Index, cfg *Configuration) indexShape {
	id, viewRows := ix.ID(), int64(-1)
	if cfg != nil {
		if v := cfg.View(ix.Table); v != nil {
			viewRows = v.EstRows
		}
	}
	if sh, ok := s.shapes.Load(id); ok && sh.(indexShape).viewRows == viewRows {
		return sh.(indexShape)
	}
	sh := indexShape{viewRows: viewRows, leafPages: 1}
	if rows, leafW, intW, resolved := s.resolve(ix, cfg); resolved {
		sh = indexShape{
			viewRows:  viewRows,
			rows:      rows,
			leafPages: storage.BTreeLeafPages(rows, leafW),
			bytes:     storage.BTreeBytes(rows, leafW, intW),
			height:    storage.BTreeHeight(rows, leafW, intW),
		}
	}
	s.shapes.Store(id, sh)
	return sh
}

// resolve returns rows, leaf entry width, and internal entry width for an
// index, consulting cfg for view-backed indexes.
func (s *Sizer) resolve(ix *Index, cfg *Configuration) (rows int64, leafW, intW int, ok bool) {
	colWidth := func(col string) (int, bool) { return s.base.ColWidth(ix.Table, col) }
	allCols := func() []string { return s.base.TableCols(ix.Table) }
	if cfg != nil {
		if v := cfg.View(ix.Table); v != nil {
			rows = v.EstRows
			colWidth = func(col string) (int, bool) {
				c := v.Column(col)
				if c == nil {
					return 0, false
				}
				return c.Width, true
			}
			allCols = func() []string { return v.AllColumnNames() }
			return s.widths(ix, rows, colWidth, allCols)
		}
	}
	r, found := s.base.TableRows(ix.Table)
	if !found {
		return 0, 0, 0, false
	}
	return s.widths(ix, r, colWidth, allCols)
}

func (s *Sizer) widths(ix *Index, rows int64, colWidth func(string) (int, bool), allCols func() []string) (int64, int, int, bool) {
	keyW := 0
	for _, k := range ix.Keys {
		w, ok := colWidth(k)
		if !ok {
			return 0, 0, 0, false
		}
		keyW += w
	}
	leafW := keyW
	if ix.Clustered {
		// Clustered leaves store full rows.
		leafW = 0
		for _, c := range allCols() {
			w, ok := colWidth(c)
			if !ok {
				return 0, 0, 0, false
			}
			leafW += w
		}
	} else {
		for _, sc := range ix.Suffix {
			w, ok := colWidth(sc)
			if !ok {
				return 0, 0, 0, false
			}
			leafW += w
		}
		leafW += storage.RidWidth // secondary leaves carry row locators
	}
	return rows, leafW, keyW, true
}

// IndexBytes returns the estimated size in bytes of one index within cfg
// (cfg supplies view cardinalities; it may be nil for base-table indexes).
func (s *Sizer) IndexBytes(ix *Index, cfg *Configuration) int64 {
	return s.shape(ix, cfg).bytes
}

// IndexPages returns the total page count of one index.
func (s *Sizer) IndexPages(ix *Index, cfg *Configuration) int64 {
	return s.IndexBytes(ix, cfg) / storage.PageSize
}

// IndexLeafPages returns the leaf-level page count (what scans touch).
func (s *Sizer) IndexLeafPages(ix *Index, cfg *Configuration) int64 {
	return s.shape(ix, cfg).leafPages
}

// IndexHeight returns the number of B-tree levels above the leaves.
func (s *Sizer) IndexHeight(ix *Index, cfg *Configuration) int {
	return s.shape(ix, cfg).height
}

// IndexRows returns the number of entries in the index.
func (s *Sizer) IndexRows(ix *Index, cfg *Configuration) int64 {
	return s.shape(ix, cfg).rows
}

// HeapPages returns the page count of the table stored as a heap (used
// when a table or view has no clustered index).
func (s *Sizer) HeapPages(table string, cfg *Configuration) int64 {
	if cfg != nil {
		if v := cfg.View(table); v != nil {
			return storage.HeapPages(v.EstRows, v.RowWidth())
		}
	}
	rows, ok := s.base.TableRows(table)
	if !ok {
		return 1
	}
	w := 0
	for _, c := range s.base.TableCols(table) {
		cw, _ := s.base.ColWidth(table, c)
		w += cw
	}
	return storage.HeapPages(rows, w)
}

// ConfigBytes returns the total size of every index in the configuration.
// Materialized views are counted through their indexes (a view's clustered
// index stores the view rows), matching §3.3.1.
func (s *Sizer) ConfigBytes(cfg *Configuration) int64 {
	// Integer summation is order-independent, so the relations are walked
	// directly rather than through the sorted Indexes() slice.
	var total int64
	for _, r := range cfg.rels {
		for _, e := range r.idx {
			total += s.IndexBytes(e.ix, cfg)
		}
	}
	return total
}

// BaseResolverFunc adapts plain functions to the WidthResolver interface.
type BaseResolverFunc struct {
	RowsFn  func(table string) (int64, bool)
	WidthFn func(table, col string) (int, bool)
	ColsFn  func(table string) []string
}

// TableRows implements WidthResolver.
func (f BaseResolverFunc) TableRows(table string) (int64, bool) { return f.RowsFn(table) }

// ColWidth implements WidthResolver.
func (f BaseResolverFunc) ColWidth(table, col string) (int, bool) { return f.WidthFn(table, col) }

// TableCols implements WidthResolver.
func (f BaseResolverFunc) TableCols(table string) []string { return f.ColsFn(table) }

// EqualFoldAny reports whether name equals any candidate, ignoring case.
func EqualFoldAny(name string, candidates ...string) bool {
	for _, c := range candidates {
		if strings.EqualFold(name, c) {
			return true
		}
	}
	return false
}
