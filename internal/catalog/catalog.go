// Package catalog models database metadata: tables, columns, types, column
// statistics, and the base (constraint-enforcing) indexes that must be
// present in every configuration. The tuner and the optimizer consult the
// catalog for cardinalities, widths, and selectivities; no actual rows are
// stored (the paper's algorithms operate purely on optimizer estimates).
package catalog

import (
	"fmt"
	"sort"
	"strings"
)

// ColType is a column's data type.
type ColType int

// Column types.
const (
	TypeInt ColType = iota
	TypeFloat
	TypeVarchar
	TypeDate // stored as days since epoch
)

func (t ColType) String() string {
	switch t {
	case TypeInt:
		return "INT"
	case TypeFloat:
		return "FLOAT"
	case TypeVarchar:
		return "VARCHAR"
	case TypeDate:
		return "DATE"
	default:
		return "UNKNOWN"
	}
}

// Column is one column of a table.
type Column struct {
	Name string
	Type ColType
	// AvgWidth is the average stored width in bytes. For fixed-width types
	// it is the type's width; for varchars it is estimated by the data
	// generator via sampling, as in §3.3.1 of the paper.
	AvgWidth int
	// Stats summarizes the column's value distribution.
	Stats *ColumnStats
}

// FixedWidth returns the storage width of fixed-width types, or 0 for
// variable-width types.
func FixedWidth(t ColType) int {
	switch t {
	case TypeInt:
		return 4
	case TypeFloat:
		return 8
	case TypeDate:
		return 4
	default:
		return 0
	}
}

// Table is a base table with its columns and primary key.
type Table struct {
	Name    string
	Columns []Column
	Rows    int64
	// PrimaryKey lists the key column names; the base configuration always
	// contains a primary-key index (it enforces the constraint and cannot
	// be dropped by the tuner).
	PrimaryKey []string
	// Heap marks tables stored as heaps: their primary-key index is
	// non-clustered and the tuner may promote a secondary index to
	// clustered (§3.1.1's promotion transformation).
	Heap bool

	byName map[string]int
}

// NewTable builds a table and indexes its columns by name.
func NewTable(name string, rows int64, cols []Column, pk []string) (*Table, error) {
	t := &Table{Name: name, Columns: cols, Rows: rows, PrimaryKey: pk}
	t.byName = make(map[string]int, len(cols))
	for i, c := range cols {
		lower := strings.ToLower(c.Name)
		if _, dup := t.byName[lower]; dup {
			return nil, fmt.Errorf("catalog: duplicate column %s.%s", name, c.Name)
		}
		t.byName[lower] = i
	}
	for _, k := range pk {
		if _, ok := t.byName[strings.ToLower(k)]; !ok {
			return nil, fmt.Errorf("catalog: primary key column %s.%s does not exist", name, k)
		}
	}
	return t, nil
}

// Column returns the named column, or nil if absent. Lookup is
// case-insensitive, matching SQL identifier semantics.
func (t *Table) Column(name string) *Column {
	i := t.ColumnIndex(name)
	if i < 0 {
		return nil
	}
	return &t.Columns[i]
}

// ColumnIndex returns the ordinal position of the named column, or -1.
func (t *Table) ColumnIndex(name string) int {
	// Names usually arrive lowercased already; try them as they are
	// before paying for ToLower.
	i, ok := t.byName[name]
	if !ok {
		i, ok = t.byName[strings.ToLower(name)]
	}
	if !ok {
		return -1
	}
	return i
}

// RowWidth returns the average width in bytes of a full row.
func (t *Table) RowWidth() int {
	w := 0
	for _, c := range t.Columns {
		w += c.AvgWidth
	}
	return w
}

// ColumnNames returns the names of all columns in declaration order.
func (t *Table) ColumnNames() []string {
	out := make([]string, len(t.Columns))
	for i, c := range t.Columns {
		out[i] = c.Name
	}
	return out
}

// Database is a named collection of tables.
type Database struct {
	Name   string
	tables map[string]*Table
	order  []string

	// fpState lazily caches the schema+stats fingerprint (see
	// fingerprint.go). Build the catalog fully before the first
	// Fingerprint call.
	fpState fingerprintState
}

// NewDatabase returns an empty database.
func NewDatabase(name string) *Database {
	return &Database{Name: name, tables: make(map[string]*Table)}
}

// AddTable registers a table; it fails on duplicate names.
func (db *Database) AddTable(t *Table) error {
	lower := strings.ToLower(t.Name)
	if _, dup := db.tables[lower]; dup {
		return fmt.Errorf("catalog: duplicate table %s", t.Name)
	}
	db.tables[lower] = t
	db.order = append(db.order, lower)
	return nil
}

// MustAddTable is AddTable but panics on error; for use by generators whose
// schemas are statically known to be valid.
func (db *Database) MustAddTable(t *Table) {
	if err := db.AddTable(t); err != nil {
		panic(err)
	}
}

// Table returns the named table or nil. Lookup is case-insensitive.
func (db *Database) Table(name string) *Table {
	if t, ok := db.tables[name]; ok {
		return t
	}
	return db.tables[strings.ToLower(name)]
}

// Tables returns all tables in registration order.
func (db *Database) Tables() []*Table {
	out := make([]*Table, 0, len(db.order))
	for _, n := range db.order {
		out = append(out, db.tables[n])
	}
	return out
}

// TotalRows returns the sum of row counts over all tables.
func (db *Database) TotalRows() int64 {
	var n int64
	for _, t := range db.tables {
		n += t.Rows
	}
	return n
}

// DataSize returns the approximate raw data size in bytes (rows × row
// width, no index overhead); used to express storage budgets relative to
// database size, as the paper's experiments do.
func (db *Database) DataSize() int64 {
	var n int64
	for _, t := range db.tables {
		n += t.Rows * int64(t.RowWidth())
	}
	return n
}

// Validate checks referential consistency of column statistics.
func (db *Database) Validate() error {
	for _, t := range db.Tables() {
		if t.Rows < 0 {
			return fmt.Errorf("catalog: table %s has negative row count", t.Name)
		}
		for _, c := range t.Columns {
			if c.AvgWidth <= 0 {
				return fmt.Errorf("catalog: column %s.%s has non-positive width", t.Name, c.Name)
			}
			if c.Stats != nil {
				if err := c.Stats.Validate(); err != nil {
					return fmt.Errorf("catalog: column %s.%s: %w", t.Name, c.Name, err)
				}
			}
		}
	}
	return nil
}

// Summary returns a one-line description (for Table 2 style inventories).
func (db *Database) Summary() string {
	tables := db.Tables()
	names := make([]string, len(tables))
	for i, t := range tables {
		names[i] = t.Name
	}
	sort.Strings(names)
	return fmt.Sprintf("%s: %d tables, %d rows, %.1f MB raw",
		db.Name, len(tables), db.TotalRows(), float64(db.DataSize())/(1<<20))
}
