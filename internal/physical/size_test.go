package physical

import (
	"sync"
	"testing"

	"repro/internal/sqlx"
	"repro/internal/storage"
)

// testResolver is a fixed two-table schema for size tests.
type testResolver struct{}

func (testResolver) TableRows(table string) (int64, bool) {
	switch table {
	case "big":
		return 1_000_000, true
	case "small":
		return 1_000, true
	}
	return 0, false
}

func (testResolver) ColWidth(table, col string) (int, bool) {
	switch col {
	case "a", "b", "c":
		return 4, true
	case "pad":
		return 100, true
	}
	return 0, false
}

func (testResolver) TableCols(table string) []string {
	return []string{"a", "b", "c", "pad"}
}

func TestSizerIndexBytesScalesWithRows(t *testing.T) {
	s := NewSizer(testResolver{})
	big := s.IndexBytes(NewIndex("big", []string{"a"}, nil, false), nil)
	small := s.IndexBytes(NewIndex("small", []string{"a"}, nil, false), nil)
	if big <= small {
		t.Errorf("bigger table must yield a bigger index: %d <= %d", big, small)
	}
}

func TestSizerClusteredStoresFullRows(t *testing.T) {
	s := NewSizer(testResolver{})
	clustered := s.IndexBytes(NewIndex("big", []string{"a"}, nil, true), nil)
	secondary := s.IndexBytes(NewIndex("big", []string{"a"}, nil, false), nil)
	if clustered <= secondary {
		t.Errorf("clustered leaves carry full rows: %d <= %d", clustered, secondary)
	}
}

func TestSizerSuffixWidensIndex(t *testing.T) {
	s := NewSizer(testResolver{})
	narrow := s.IndexBytes(NewIndex("big", []string{"a"}, nil, false), nil)
	wide := s.IndexBytes(NewIndex("big", []string{"a"}, []string{"pad"}, false), nil)
	if wide <= narrow {
		t.Errorf("suffix columns must grow the index: %d <= %d", wide, narrow)
	}
}

func TestSizerUnknownTable(t *testing.T) {
	s := NewSizer(testResolver{})
	if got := s.IndexBytes(NewIndex("missing", []string{"a"}, nil, false), nil); got != 0 {
		t.Errorf("unknown table should size to 0, got %d", got)
	}
}

func TestSizerViewBackedIndex(t *testing.T) {
	s := NewSizer(testResolver{})
	cfg := NewConfiguration()
	v := &View{
		Name:    "v",
		Tables:  []string{"big"},
		Cols:    []ViewColumn{BaseViewColumn(sqlx.ColRef{Table: "big", Column: "a"}, 4)},
		EstRows: 50_000,
	}
	cfg.AddView(v)
	ix := NewIndex("v", []string{v.Cols[0].Name}, nil, false)
	cfg.AddIndex(ix)
	sz := s.IndexBytes(ix, cfg)
	if sz <= 0 {
		t.Fatal("view index should have a size")
	}
	// Re-estimating the view's cardinality must re-size the index.
	v.EstRows = 500_000
	sz2 := s.IndexBytes(ix, cfg)
	if sz2 <= sz {
		t.Errorf("size should track view cardinality: %d <= %d", sz2, sz)
	}
}

func TestConfigBytesSumsIndexes(t *testing.T) {
	s := NewSizer(testResolver{})
	cfg := NewConfiguration()
	i1 := NewIndex("big", []string{"a"}, nil, false)
	i2 := NewIndex("small", []string{"b"}, nil, false)
	cfg.AddIndex(i1)
	cfg.AddIndex(i2)
	want := s.IndexBytes(i1, cfg) + s.IndexBytes(i2, cfg)
	if got := s.ConfigBytes(cfg); got != want {
		t.Errorf("ConfigBytes = %d, want %d", got, want)
	}
}

func TestIndexPagesConsistentWithBytes(t *testing.T) {
	s := NewSizer(testResolver{})
	ix := NewIndex("big", []string{"a", "b"}, []string{"c"}, false)
	if s.IndexPages(ix, nil)*storage.PageSize != s.IndexBytes(ix, nil) {
		t.Error("pages and bytes disagree")
	}
	if s.IndexLeafPages(ix, nil) > s.IndexPages(ix, nil) {
		t.Error("leaf pages exceed total pages")
	}
}

func TestHeapPagesForViewAndTable(t *testing.T) {
	s := NewSizer(testResolver{})
	if s.HeapPages("big", nil) <= s.HeapPages("small", nil) {
		t.Error("bigger table needs more heap pages")
	}
	cfg := NewConfiguration()
	cfg.AddView(&View{Name: "v", Tables: []string{"big"}, Cols: []ViewColumn{BaseViewColumn(sqlx.ColRef{Table: "big", Column: "a"}, 4)}, EstRows: 10})
	if s.HeapPages("v", cfg) != 1 {
		t.Errorf("tiny view should fit one page: %d", s.HeapPages("v", cfg))
	}
}

// TestSizerShapeMatchesResolve: the memoized leaf pages, height, rows and
// bytes equal the B-tree formulas over resolve's (rows, leaf width,
// internal width), on cold and warm lookups alike. Re-estimating a view's
// rows keys a fresh entry; unresolvable indexes get the fallbacks.
func TestSizerShapeMatchesResolve(t *testing.T) {
	s := NewSizer(testResolver{})
	cfg := NewConfiguration()
	v := &View{
		Name:    "v",
		Tables:  []string{"big"},
		Cols:    []ViewColumn{BaseViewColumn(sqlx.ColRef{Table: "big", Column: "a"}, 4), BaseViewColumn(sqlx.ColRef{Table: "big", Column: "pad"}, 100)},
		EstRows: 50_000,
	}
	cfg.AddView(v)
	indexes := []*Index{
		NewIndex("big", []string{"a", "b"}, []string{"pad"}, false),
		NewIndex("big", []string{"c"}, nil, true),
		NewIndex("small", []string{"b"}, []string{"a"}, false),
		NewIndex("v", []string{v.Cols[0].Name}, []string{v.Cols[1].Name}, false),
		NewIndex("v", []string{v.Cols[1].Name}, nil, true),
	}
	check := func(when string) {
		t.Helper()
		for _, ix := range indexes {
			rows, leafW, intW, ok := s.resolve(ix, cfg)
			if !ok {
				t.Fatalf("%s: %s does not resolve", ix, when)
			}
			for pass := 0; pass < 2; pass++ { // cold, then warm
				if got, want := s.IndexLeafPages(ix, cfg), storage.BTreeLeafPages(rows, leafW); got != want {
					t.Errorf("%s %s: leaf pages %d, want %d", ix, when, got, want)
				}
				if got, want := s.IndexHeight(ix, cfg), storage.BTreeHeight(rows, leafW, intW); got != want {
					t.Errorf("%s %s: height %d, want %d", ix, when, got, want)
				}
				if got := s.IndexRows(ix, cfg); got != rows {
					t.Errorf("%s %s: rows %d, want %d", ix, when, got, rows)
				}
				if got, want := s.IndexBytes(ix, cfg), storage.BTreeBytes(rows, leafW, intW); got != want {
					t.Errorf("%s %s: bytes %d, want %d", ix, when, got, want)
				}
			}
		}
	}
	check("before re-estimation")
	viewIx := indexes[3]
	rowsBefore, leafBefore := s.IndexRows(viewIx, cfg), s.IndexLeafPages(viewIx, cfg)
	v.EstRows = 500_000
	check("after re-estimation")
	if s.IndexRows(viewIx, cfg) != 500_000 || s.IndexLeafPages(viewIx, cfg) <= leafBefore || rowsBefore != 50_000 {
		t.Errorf("re-estimated view answered from the stale entry: rows %d → %d, leaf pages %d → %d",
			rowsBefore, s.IndexRows(viewIx, cfg), leafBefore, s.IndexLeafPages(viewIx, cfg))
	}

	missing := NewIndex("missing", []string{"a"}, nil, false)
	if s.IndexLeafPages(missing, nil) != 1 || s.IndexHeight(missing, nil) != 0 || s.IndexRows(missing, nil) != 0 || s.IndexBytes(missing, nil) != 0 {
		t.Error("unresolvable index must answer 1 leaf page, height 0, 0 rows, 0 bytes")
	}
}

// TestSizerWarmLookupAllocatesNothing: the penalty-bound and what-if hot
// paths ask for shapes millions of times per session.
func TestSizerWarmLookupAllocatesNothing(t *testing.T) {
	s := NewSizer(testResolver{})
	cfg := NewConfiguration()
	cfg.AddView(&View{Name: "v", Tables: []string{"big"}, Cols: []ViewColumn{BaseViewColumn(sqlx.ColRef{Table: "big", Column: "a"}, 4)}, EstRows: 10})
	base := NewIndex("big", []string{"a"}, []string{"b"}, false)
	onView := NewIndex("v", []string{"big_a"}, nil, true)
	s.IndexBytes(base, cfg)
	s.IndexBytes(onView, cfg)
	allocs := testing.AllocsPerRun(1000, func() {
		s.IndexLeafPages(base, cfg)
		s.IndexHeight(onView, cfg)
		s.IndexRows(base, nil)
		s.IndexBytes(onView, cfg)
	})
	if allocs != 0 {
		t.Errorf("warm shape lookups allocate %.1f objects per run, want 0", allocs)
	}
}

// TestSizerConcurrentLookups runs cold and warm lookups of overlapping
// keys from many goroutines (meaningful under -race) and checks every
// answer against a sizer filled serially.
func TestSizerConcurrentLookups(t *testing.T) {
	var indexes []*Index
	for _, table := range []string{"big", "small"} {
		for _, keys := range [][]string{{"a"}, {"b"}, {"a", "b"}, {"c", "pad"}} {
			indexes = append(indexes, NewIndex(table, keys, nil, false), NewIndex(table, keys, []string{"pad"}, false))
		}
	}
	serial := NewSizer(testResolver{})
	want := make([]indexShape, len(indexes))
	for i, ix := range indexes {
		want[i] = serial.shape(ix, nil)
	}
	shared := NewSizer(testResolver{})
	var wg sync.WaitGroup
	errs := make(chan string, 8*len(indexes))
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for n := range indexes {
				i := (n + g) % len(indexes)
				ix := indexes[i]
				got := indexShape{
					viewRows:  -1,
					rows:      shared.IndexRows(ix, nil),
					leafPages: shared.IndexLeafPages(ix, nil),
					bytes:     shared.IndexBytes(ix, nil),
					height:    shared.IndexHeight(ix, nil),
				}
				if got != want[i] {
					errs <- ix.ID()
				}
			}
		}(g)
	}
	wg.Wait()
	close(errs)
	for id := range errs {
		t.Errorf("%s: concurrent lookup disagrees with the serial sizer", id)
	}
}
