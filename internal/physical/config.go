package physical

import (
	"fmt"
	"maps"
	"slices"
	"sort"
	"strings"
)

// Configuration is a set of indexes and materialized views. Configurations
// are treated as immutable values by the search: transformations produce
// new configurations sharing unchanged structures with their parents.
//
// Indexes are held per relation (table or view) in slices sorted by ID.
// Those slices and the view maps are shared between clones and never
// written while shared: a change stores a modified copy. So Clone copies
// only the short list of relations, and relaxing one relation, as every
// transformation does, costs work proportional to that relation, not to
// the configuration.
type Configuration struct {
	rels     []relation // sorted by key
	nIdx     int
	views    map[string]*View  // keyed by View.Name
	viewSigs map[string]string // signature -> name (deduplication)

	// editing is set while ApplySized builds this configuration, which no
	// one else sees yet: a relation slice or the view maps, once copied
	// for a write, are then owned and later writes go in place.
	// ApplySized drops the ownership before it returns.
	editing    bool
	viewsOwned bool
}

// relation is the indexes of one table or view.
type relation struct {
	key   string  // lowercased table or view name
	idx   []entry // sorted by ID
	owned bool    // see Configuration.editing
}

// entry is one index under its ID.
type entry struct {
	id string
	ix *Index
}

// NewConfiguration returns an empty configuration.
func NewConfiguration() *Configuration {
	return &Configuration{
		views:    make(map[string]*View),
		viewSigs: make(map[string]string),
	}
}

// Clone returns a copy that can be mutated independently.
func (c *Configuration) Clone() *Configuration {
	return &Configuration{
		rels:     slices.Clone(c.rels),
		nIdx:     c.nIdx,
		views:    c.views,
		viewSigs: c.viewSigs,
	}
}

// endEdit ends the edit ApplySized started: c may now be shared, so it
// owns nothing any more.
func (c *Configuration) endEdit() {
	c.editing, c.viewsOwned = false, false
	for i := range c.rels {
		c.rels[i].owned = false
	}
}

// relKey is the relation key of a table or view name.
func relKey(table string) string { return strings.ToLower(table) }

// relKeyOfID is the relation key of an index ID ("ix:" or "cix:", the
// table, then the parenthesized columns; see Index.buildID).
func relKeyOfID(id string) string {
	from := strings.IndexByte(id, ':') + 1
	to := strings.IndexByte(id, '(')
	if from <= 0 || to < from {
		return ""
	}
	return relKey(id[from:to])
}

// findRel returns where the relation with this key is, or would be
// inserted, in c.rels.
func (c *Configuration) findRel(key string) (int, bool) {
	return slices.BinarySearchFunc(c.rels, key, func(r relation, key string) int { return strings.Compare(r.key, key) })
}

// relIndexes returns the sorted indexes of the relation with this key.
func (c *Configuration) relIndexes(key string) []entry {
	if i, found := c.findRel(key); found {
		return c.rels[i].idx
	}
	return nil
}

// editRel returns the relation's index slice ready to be written and to
// grow by one: the slice itself when c owns it, else a copy.
func (c *Configuration) editRel(key string) []entry {
	i, found := c.findRel(key)
	if !found {
		return nil
	}
	if c.rels[i].owned {
		return c.rels[i].idx
	}
	return slices.Grow(slices.Clip(c.rels[i].idx), 1)
}

// setRel stores the relation's new index slice, dropping it when empty.
func (c *Configuration) setRel(key string, idx []entry) {
	i, found := c.findRel(key)
	switch {
	case found && len(idx) == 0:
		c.rels = slices.Delete(c.rels, i, i+1)
	case found:
		c.rels[i].idx, c.rels[i].owned = idx, c.editing
	case len(idx) > 0:
		c.rels = slices.Insert(c.rels, i, relation{key, idx, c.editing})
	}
}

// editViews makes the view maps writable: copies unless c owns them.
func (c *Configuration) editViews() {
	if !c.viewsOwned {
		c.views, c.viewSigs = maps.Clone(c.views), maps.Clone(c.viewSigs)
		c.viewsOwned = c.editing
	}
}

// find returns where id is, or would be inserted, in a sorted relation.
func find(rel []entry, id string) (int, bool) {
	return slices.BinarySearchFunc(rel, id, func(e entry, id string) int { return strings.Compare(e.id, id) })
}

// AddIndex inserts ix; duplicate definitions are collapsed. Adding a
// clustered index when the table already has one demotes the new index to
// non-clustered (two clustered indexes per table are impossible).
func (c *Configuration) AddIndex(ix *Index) *Index {
	ix, _ = c.addIndex(ix)
	return ix
}

// addIndex is AddIndex that also reports whether the configuration gained
// an index.
func (c *Configuration) addIndex(ix *Index) (*Index, bool) {
	if ix.Clustered {
		if existing := c.ClusteredOn(ix.Table); existing != nil && existing.ID() != ix.ID() {
			ix = ix.Clone()
			ix.Clustered = false
			ix.id = ix.buildID()
		}
	}
	id, key := ix.ID(), relKey(ix.Table)
	rel := c.relIndexes(key)
	i, found := find(rel, id)
	if found {
		// Keep the Required flag if either copy carries it.
		if old := rel[i].ix; !ix.Required || old.Required {
			return old, false
		}
		rel = c.editRel(key)
		rel[i].ix = ix
		c.setRel(key, rel)
		return ix, false
	}
	c.setRel(key, slices.Insert(c.editRel(key), i, entry{id, ix}))
	c.nIdx++
	return ix, true
}

// RemoveIndex deletes the index with the given ID; required indexes are
// never removed. Reports whether a removal happened.
func (c *Configuration) RemoveIndex(id string) bool {
	return c.removeIndex(id) != nil
}

// removeIndex is RemoveIndex returning the removed index, or nil.
func (c *Configuration) removeIndex(id string) *Index {
	key := relKeyOfID(id)
	rel := c.relIndexes(key)
	i, found := find(rel, id)
	if !found || rel[i].ix.Required {
		return nil
	}
	ix := rel[i].ix
	c.setRel(key, slices.Delete(c.editRel(key), i, i+1))
	c.nIdx--
	return ix
}

// HasIndex reports whether an index with this ID is present.
func (c *Configuration) HasIndex(id string) bool {
	_, found := find(c.relIndexes(relKeyOfID(id)), id)
	return found
}

// Index returns the index with the given ID, or nil.
func (c *Configuration) Index(id string) *Index {
	rel := c.relIndexes(relKeyOfID(id))
	if i, found := find(rel, id); found {
		return rel[i].ix
	}
	return nil
}

// AddView inserts a view definition, deduplicating by signature. It
// returns the canonical view instance present in the configuration.
func (c *Configuration) AddView(v *View) *View {
	sig := v.Signature()
	if name, ok := c.viewSigs[sig]; ok {
		return c.views[name]
	}
	c.editViews()
	c.views[v.Name] = v
	c.viewSigs[sig] = v.Name
	return v
}

// RemoveView deletes the view and cascades to all indexes defined over it.
// Reports whether the view existed.
func (c *Configuration) RemoveView(name string) bool {
	_, ok := c.removeView(name)
	return ok
}

// removeView is RemoveView that also returns the cascaded indexes. The
// returned slice must not be written.
func (c *Configuration) removeView(name string) ([]entry, bool) {
	v, ok := c.views[name]
	if !ok {
		return nil, false
	}
	c.editViews()
	delete(c.views, name)
	delete(c.viewSigs, v.Signature())
	key := relKey(name)
	cascaded := c.relIndexes(key)
	c.setRel(key, nil)
	c.nIdx -= len(cascaded)
	return cascaded, true
}

// View returns the named view, or nil.
func (c *Configuration) View(name string) *View { return c.views[name] }

// ViewBySignature returns the view with the given definition, or nil.
func (c *Configuration) ViewBySignature(sig string) *View {
	name, ok := c.viewSigs[sig]
	if !ok {
		return nil
	}
	return c.views[name]
}

// Views returns all views sorted by name.
func (c *Configuration) Views() []*View {
	out := make([]*View, 0, len(c.views))
	for _, v := range c.views {
		out = append(out, v)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Name < out[j].Name })
	return out
}

// Indexes returns all indexes sorted by ID.
func (c *Configuration) Indexes() []*Index {
	all := make([]entry, 0, c.nIdx)
	for _, r := range c.rels {
		all = append(all, r.idx...)
	}
	slices.SortFunc(all, func(a, b entry) int { return strings.Compare(a.id, b.id) })
	return indexesOf(all)
}

// IndexesOn returns all indexes over the named table or view, sorted.
func (c *Configuration) IndexesOn(table string) []*Index {
	return indexesOf(c.relIndexes(relKey(table)))
}

func indexesOf(rel []entry) []*Index {
	out := make([]*Index, len(rel))
	for i, e := range rel {
		out[i] = e.ix
	}
	return out
}

// ClusteredOn returns the clustered index on the table/view, or nil.
func (c *Configuration) ClusteredOn(table string) *Index {
	for _, e := range c.relIndexes(relKey(table)) {
		if e.ix.Clustered {
			return e.ix
		}
	}
	return nil
}

// MaterializedViews returns views that have at least one index (i.e. are
// actually materialized). In well-formed configurations every view has a
// clustered index; this accessor guards against dangling definitions.
func (c *Configuration) MaterializedViews() []*View {
	var out []*View
	for _, v := range c.Views() {
		if len(c.IndexesOn(v.Name)) > 0 {
			out = append(out, v)
		}
	}
	return out
}

// NumStructures returns the count of indexes plus views.
func (c *Configuration) NumStructures() int { return c.nIdx + len(c.views) }

// NumIndexes returns the number of indexes.
func (c *Configuration) NumIndexes() int { return c.nIdx }

// NumViews returns the number of views.
func (c *Configuration) NumViews() int { return len(c.views) }

// Fingerprint is a canonical identity for the whole configuration, used to
// deduplicate configurations in the search pool.
func (c *Configuration) Fingerprint() string {
	ids := make([]string, 0, c.nIdx+len(c.views))
	for _, r := range c.rels {
		for _, e := range r.idx {
			ids = append(ids, e.id)
		}
	}
	for _, v := range c.views {
		ids = append(ids, "v:"+v.Signature())
	}
	sort.Strings(ids)
	return strings.Join(ids, "|")
}

// String renders a compact human-readable description.
func (c *Configuration) String() string {
	return fmt.Sprintf("config{%d indexes, %d views}", c.nIdx, len(c.views))
}

// Diff returns the IDs of indexes and names of views present in c but not
// in other.
func (c *Configuration) Diff(other *Configuration) (indexIDs, viewNames []string) {
	for _, r := range c.rels {
		for _, e := range r.idx {
			if !other.HasIndex(e.id) {
				indexIDs = append(indexIDs, e.id)
			}
		}
	}
	for name, v := range c.views {
		if other.ViewBySignature(v.Signature()) == nil {
			viewNames = append(viewNames, name)
		}
	}
	sort.Strings(indexIDs)
	sort.Strings(viewNames)
	return indexIDs, viewNames
}
