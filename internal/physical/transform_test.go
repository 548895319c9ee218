package physical

import (
	"slices"
	"testing"

	"repro/internal/sqlx"
)

func enumCfg() *Configuration {
	c := NewConfiguration()
	req := NewIndex("t", []string{"id"}, []string{"a", "b", "c"}, true)
	req.Required = true
	c.AddIndex(req)
	c.AddIndex(NewIndex("t", []string{"a", "b"}, []string{"c"}, false))
	c.AddIndex(NewIndex("t", []string{"a", "c"}, nil, false))
	c.AddIndex(NewIndex("u", []string{"x"}, []string{"y"}, false))
	return c
}

func TestEnumerateKinds(t *testing.T) {
	trs := Enumerate(enumCfg(), EnumerateOptions{NoViews: true})
	kinds := map[TransKind]int{}
	for _, tr := range trs {
		kinds[tr.Kind]++
	}
	if kinds[TransRemoveIndex] != 3 {
		t.Errorf("removals: %d (required index must be excluded)", kinds[TransRemoveIndex])
	}
	if kinds[TransMergeIndexes] != 2 {
		t.Errorf("merges: %d (one same-table pair, both orders)", kinds[TransMergeIndexes])
	}
	if kinds[TransSplitIndexes] != 1 {
		t.Errorf("splits: %d", kinds[TransSplitIndexes])
	}
	if kinds[TransPrefixIndex] == 0 {
		t.Error("no prefixes enumerated")
	}
	if kinds[TransPromoteClustered] != 0 {
		t.Error("promotion requires a heap table")
	}
}

func TestEnumeratePromotionOnHeaps(t *testing.T) {
	c := NewConfiguration()
	pk := NewIndex("h", []string{"id"}, nil, false)
	pk.Required = true
	c.AddIndex(pk)
	c.AddIndex(NewIndex("h", []string{"a"}, nil, false))
	trs := Enumerate(c, EnumerateOptions{NoViews: true, HeapTables: map[string]bool{"h": true}})
	found := false
	for _, tr := range trs {
		if tr.Kind == TransPromoteClustered {
			found = true
			if tr.I1.Required {
				t.Error("required index must not be promoted")
			}
		}
	}
	if !found {
		t.Error("expected a promotion transformation on the heap table")
	}
}

func TestApplyMerge(t *testing.T) {
	c := enumCfg()
	var merge *Transformation
	for _, tr := range Enumerate(c, EnumerateOptions{NoViews: true}) {
		if tr.Kind == TransMergeIndexes {
			merge = tr
			break
		}
	}
	if merge == nil {
		t.Fatal("no merge found")
	}
	after := merge.Apply(c)
	mergedID := merge.NewIdx[0].ID()
	// Inputs disappear unless the merge result coincides with one of them
	// (then that input survives as the merged index).
	for _, in := range []*Index{merge.I1, merge.I2} {
		if in.ID() != mergedID && after.HasIndex(in.ID()) {
			t.Errorf("input %s should be removed", in.ID())
		}
	}
	if !after.HasIndex(mergedID) {
		t.Error("merged index missing")
	}
	// Source configuration untouched.
	if !c.HasIndex(merge.I1.ID()) {
		t.Error("Apply mutated the source configuration")
	}
}

func TestApplyNeverRemovesRequired(t *testing.T) {
	c := enumCfg()
	var reqID string
	for _, ix := range c.Indexes() {
		if ix.Required {
			reqID = ix.ID()
		}
	}
	for _, tr := range Enumerate(c, EnumerateOptions{NoViews: true}) {
		after := tr.Apply(c)
		if !after.HasIndex(reqID) {
			t.Fatalf("transformation %s removed a required index", tr)
		}
	}
}

func TestTransformationIDsUnique(t *testing.T) {
	trs := Enumerate(enumCfg(), EnumerateOptions{NoViews: true})
	seen := map[string]bool{}
	for _, tr := range trs {
		id := tr.ID()
		if seen[id] {
			t.Errorf("duplicate transformation ID %q", id)
		}
		seen[id] = true
	}
}

func TestEnumerateViewTransformations(t *testing.T) {
	c := NewConfiguration()
	mk := func(name string, hi float64) *View {
		v := &View{
			Name:   name,
			Tables: []string{"r"},
			Ranges: []RangeCond{{Col: sqlx.ColRef{Table: "r", Column: "a"}, Iv: Interval{Lo: 0, LoIncl: true, Hi: hi}}},
			Cols:   []ViewColumn{BaseViewColumn(sqlx.ColRef{Table: "r", Column: "a"}, 4)},
		}
		return v
	}
	v1 := c.AddView(mk("v1", 10))
	v2 := c.AddView(mk("v2", 20))
	c.AddIndex(NewIndex(v1.Name, []string{v1.Cols[0].Name}, nil, true))
	c.AddIndex(NewIndex(v2.Name, []string{v2.Cols[0].Name}, nil, true))

	trs := Enumerate(c, EnumerateOptions{WidthOf: func(sqlx.ColRef) int { return 8 }})
	var removes, merges int
	for _, tr := range trs {
		switch tr.Kind {
		case TransRemoveView:
			removes++
		case TransMergeViews:
			merges++
			if tr.VM == nil {
				t.Error("merge without result view")
			}
			clustered := false
			for _, p := range tr.Promoted {
				if p.Clustered {
					clustered = true
				}
			}
			if !clustered {
				t.Error("merged view must keep a clustered index")
			}
			after := tr.Apply(c)
			if after.View(v1.Name) != nil || after.View(v2.Name) != nil {
				t.Error("merged inputs should be gone")
			}
			if after.View(tr.VM.Name) == nil {
				t.Error("merged view missing after apply")
			}
			if len(after.IndexesOn(tr.VM.Name)) == 0 {
				t.Error("merged view has no indexes after apply")
			}
		}
	}
	if removes != 2 || merges != 1 {
		t.Errorf("view transformations: %d removes, %d merges", removes, merges)
	}
}

func TestRemoveViewCascadesInApply(t *testing.T) {
	c := NewConfiguration()
	v := c.AddView(&View{Name: "v", Tables: []string{"r"}, Cols: []ViewColumn{BaseViewColumn(sqlx.ColRef{Table: "r", Column: "a"}, 4)}})
	c.AddIndex(NewIndex(v.Name, []string{v.Cols[0].Name}, nil, true))
	tr := &Transformation{Kind: TransRemoveView, V1: v}
	after := tr.Apply(c)
	if after.View("v") != nil || len(after.IndexesOn("v")) != 0 {
		t.Error("view removal must cascade")
	}
}

// TestApplyResultIsolation: the relaxed configuration Apply returns shares
// storage with its source, yet behaves like an independent value. Writing
// the source, the result, or a clone of the result never shows through to
// the others.
func TestApplyResultIsolation(t *testing.T) {
	ids := func(c *Configuration) []string {
		var out []string
		for _, ix := range c.Indexes() {
			out = append(out, ix.ID())
		}
		return out
	}
	src := enumCfg()
	srcBefore := ids(src)
	var merge *Transformation
	for _, tr := range Enumerate(src, EnumerateOptions{NoViews: true}) {
		if tr.Kind == TransMergeIndexes {
			merge = tr
			break
		}
	}
	res := merge.Apply(src)
	res.AddIndex(NewIndex("t", []string{"b"}, nil, false))
	res.AddIndex(NewIndex("t", []string{"c"}, nil, false))
	resBefore := ids(res)

	clone := res.Clone()
	clone.RemoveIndex(NewIndex("t", []string{"b"}, nil, false).ID())
	clone.AddIndex(NewIndex("t", []string{"a"}, nil, false))
	src.AddIndex(NewIndex("t", []string{"d"}, nil, false))

	if got := ids(res); !slices.Equal(got, resBefore) {
		t.Errorf("result changed by writes elsewhere:\n got %v\nwant %v", got, resBefore)
	}
	if got := ids(src); len(got) != len(srcBefore)+1 {
		t.Errorf("source changed by writes elsewhere: %v, was %v", got, srcBefore)
	}
	if !clone.HasIndex(NewIndex("t", []string{"a"}, nil, false).ID()) || clone.HasIndex(NewIndex("t", []string{"b"}, nil, false).ID()) {
		t.Errorf("clone lost its own writes: %v", ids(clone))
	}
}
