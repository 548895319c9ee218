package sqlx

import (
	"fmt"
	"sort"
	"strconv"
	"strings"
)

// AggFunc identifies an aggregate function in a select list.
type AggFunc int

// Aggregate functions.
const (
	AggNone AggFunc = iota
	AggSum
	AggCount
	AggAvg
	AggMin
	AggMax
)

func (a AggFunc) String() string {
	switch a {
	case AggSum:
		return "SUM"
	case AggCount:
		return "COUNT"
	case AggAvg:
		return "AVG"
	case AggMin:
		return "MIN"
	case AggMax:
		return "MAX"
	default:
		return ""
	}
}

// CmpOp is a comparison operator in a predicate.
type CmpOp int

// Comparison operators.
const (
	CmpEQ CmpOp = iota
	CmpNE
	CmpLT
	CmpLE
	CmpGT
	CmpGE
)

func (op CmpOp) String() string {
	switch op {
	case CmpEQ:
		return "="
	case CmpNE:
		return "<>"
	case CmpLT:
		return "<"
	case CmpLE:
		return "<="
	case CmpGT:
		return ">"
	case CmpGE:
		return ">="
	default:
		return "?"
	}
}

// Flip returns the operator with its operands exchanged (a op b == b op' a).
func (op CmpOp) Flip() CmpOp {
	switch op {
	case CmpLT:
		return CmpGT
	case CmpLE:
		return CmpGE
	case CmpGT:
		return CmpLT
	case CmpGE:
		return CmpLE
	default:
		return op
	}
}

// Expr is a scalar expression node.
type Expr interface {
	fmt.Stringer
	// Columns appends all column references in the expression to dst.
	Columns(dst []ColRef) []ColRef
	// EqualExpr reports structural equality modulo nothing (exact shape).
	EqualExpr(other Expr) bool
}

// ColRef is a (possibly qualified) column reference.
type ColRef struct {
	Table  string // alias or table name; empty if unqualified
	Column string
}

func (c ColRef) String() string {
	if c.Table == "" {
		return c.Column
	}
	return c.Table + "." + c.Column
}

// Columns implements Expr.
func (c ColRef) Columns(dst []ColRef) []ColRef { return append(dst, c) }

// EqualExpr implements Expr.
func (c ColRef) EqualExpr(other Expr) bool {
	o, ok := other.(ColRef)
	return ok && o == c
}

// Less imposes a total order on column references (for canonicalization).
func (c ColRef) Less(o ColRef) bool {
	if c.Table != o.Table {
		return c.Table < o.Table
	}
	return c.Column < o.Column
}

// ConstKind distinguishes literal types.
type ConstKind int

// Constant kinds.
const (
	ConstNumber ConstKind = iota
	ConstString
)

// Const is a literal constant.
type Const struct {
	Kind ConstKind
	Num  float64
	Str  string
}

// Number returns a numeric constant expression.
func Number(v float64) Const { return Const{Kind: ConstNumber, Num: v} }

// Str returns a string constant expression.
func Str(s string) Const { return Const{Kind: ConstString, Str: s} }

func (c Const) String() string {
	if c.Kind == ConstString {
		return "'" + strings.ReplaceAll(c.Str, "'", "''") + "'"
	}
	return strconv.FormatFloat(c.Num, 'g', -1, 64)
}

// Columns implements Expr.
func (c Const) Columns(dst []ColRef) []ColRef { return dst }

// EqualExpr implements Expr.
func (c Const) EqualExpr(other Expr) bool {
	o, ok := other.(Const)
	return ok && o == c
}

// BinExpr is an arithmetic binary expression (+ - * / %).
type BinExpr struct {
	Op   string
	L, R Expr
}

func (b *BinExpr) String() string {
	return fmt.Sprintf("%s %s %s", parenthesize(b.L), b.Op, parenthesize(b.R))
}

// Columns implements Expr.
func (b *BinExpr) Columns(dst []ColRef) []ColRef {
	return b.R.Columns(b.L.Columns(dst))
}

// EqualExpr implements Expr.
func (b *BinExpr) EqualExpr(other Expr) bool {
	o, ok := other.(*BinExpr)
	return ok && o.Op == b.Op && b.L.EqualExpr(o.L) && b.R.EqualExpr(o.R)
}

// CmpExpr is a comparison between two scalar expressions.
type CmpExpr struct {
	Op   CmpOp
	L, R Expr
}

func (c *CmpExpr) String() string {
	return fmt.Sprintf("%s %s %s", parenthesize(c.L), c.Op, parenthesize(c.R))
}

// Columns implements Expr.
func (c *CmpExpr) Columns(dst []ColRef) []ColRef {
	return c.R.Columns(c.L.Columns(dst))
}

// EqualExpr implements Expr.
func (c *CmpExpr) EqualExpr(other Expr) bool {
	o, ok := other.(*CmpExpr)
	return ok && o.Op == c.Op && c.L.EqualExpr(o.L) && c.R.EqualExpr(o.R)
}

// LikeExpr is a LIKE pattern predicate.
type LikeExpr struct {
	Col     ColRef
	Pattern string
	Negated bool
}

func (l *LikeExpr) String() string {
	not := ""
	if l.Negated {
		not = "NOT "
	}
	return fmt.Sprintf("%s %sLIKE %s", l.Col, not, Str(l.Pattern))
}

// Columns implements Expr.
func (l *LikeExpr) Columns(dst []ColRef) []ColRef { return append(dst, l.Col) }

// EqualExpr implements Expr.
func (l *LikeExpr) EqualExpr(other Expr) bool {
	o, ok := other.(*LikeExpr)
	return ok && *o == *l
}

// InExpr is a col IN (const, ...) predicate.
type InExpr struct {
	Col    ColRef
	Values []Const
}

func (in *InExpr) String() string {
	parts := make([]string, len(in.Values))
	for i, v := range in.Values {
		parts[i] = v.String()
	}
	return fmt.Sprintf("%s IN (%s)", in.Col, strings.Join(parts, ", "))
}

// Columns implements Expr.
func (in *InExpr) Columns(dst []ColRef) []ColRef { return append(dst, in.Col) }

// EqualExpr implements Expr.
func (in *InExpr) EqualExpr(other Expr) bool {
	o, ok := other.(*InExpr)
	if !ok || o.Col != in.Col || len(o.Values) != len(in.Values) {
		return false
	}
	for i := range in.Values {
		if o.Values[i] != in.Values[i] {
			return false
		}
	}
	return true
}

// BoolExpr is a boolean combination of predicates.
type BoolExpr struct {
	Op   string // "AND", "OR", "NOT" (NOT uses only L)
	L, R Expr
}

func (b *BoolExpr) String() string {
	if b.Op == "NOT" {
		return "NOT " + parenthesize(b.L)
	}
	return fmt.Sprintf("%s %s %s", parenthesize(b.L), b.Op, parenthesize(b.R))
}

// Columns implements Expr.
func (b *BoolExpr) Columns(dst []ColRef) []ColRef {
	dst = b.L.Columns(dst)
	if b.R != nil {
		dst = b.R.Columns(dst)
	}
	return dst
}

// EqualExpr implements Expr.
func (b *BoolExpr) EqualExpr(other Expr) bool {
	o, ok := other.(*BoolExpr)
	if !ok || o.Op != b.Op {
		return false
	}
	if !b.L.EqualExpr(o.L) {
		return false
	}
	if b.R == nil {
		return o.R == nil
	}
	return o.R != nil && b.R.EqualExpr(o.R)
}

func parenthesize(e Expr) string {
	switch e.(type) {
	case *BoolExpr, *CmpExpr, *BinExpr:
		return "(" + e.String() + ")"
	default:
		return e.String()
	}
}

// SelectItem is one entry in a select list: an optional aggregate applied to
// an expression, with an optional alias. COUNT(*) is Agg=AggCount, Expr=nil.
type SelectItem struct {
	Agg   AggFunc
	Expr  Expr // nil only for COUNT(*)
	Alias string
}

func (s SelectItem) String() string {
	var core string
	if s.Agg != AggNone {
		arg := "*"
		if s.Expr != nil {
			arg = s.Expr.String()
		}
		core = fmt.Sprintf("%s(%s)", s.Agg, arg)
	} else {
		core = s.Expr.String()
	}
	if s.Alias != "" {
		core += " AS " + s.Alias
	}
	return core
}

// TableRef is a table in a FROM clause with an optional alias.
type TableRef struct {
	Name  string
	Alias string
}

// Binding returns the name queries use to reference this table's columns.
func (t TableRef) Binding() string {
	if t.Alias != "" {
		return t.Alias
	}
	return t.Name
}

func (t TableRef) String() string {
	if t.Alias != "" && t.Alias != t.Name {
		return t.Name + " " + t.Alias
	}
	return t.Name
}

// OrderItem is one entry of an ORDER BY clause.
type OrderItem struct {
	Col  ColRef
	Desc bool
}

func (o OrderItem) String() string {
	if o.Desc {
		return o.Col.String() + " DESC"
	}
	return o.Col.String()
}

// StmtKind distinguishes statement types.
type StmtKind int

// Statement kinds.
const (
	StmtSelect StmtKind = iota
	StmtUpdate
	StmtInsert
	StmtDelete
)

// Statement is any parsed SQL statement.
type Statement interface {
	Kind() StmtKind
	SQL() string
}

// SelectStmt is a single-block SPJG query with optional ORDER BY and TOP.
type SelectStmt struct {
	Items   []SelectItem
	From    []TableRef
	Where   Expr // nil if absent; conjunction tree
	GroupBy []ColRef
	OrderBy []OrderItem
	Top     int // 0 means no TOP clause
}

// Kind implements Statement.
func (s *SelectStmt) Kind() StmtKind { return StmtSelect }

// SQL implements Statement.
func (s *SelectStmt) SQL() string {
	var sb strings.Builder
	sb.WriteString("SELECT ")
	if s.Top > 0 {
		fmt.Fprintf(&sb, "TOP(%d) ", s.Top)
	}
	for i, it := range s.Items {
		if i > 0 {
			sb.WriteString(", ")
		}
		sb.WriteString(it.String())
	}
	sb.WriteString(" FROM ")
	for i, t := range s.From {
		if i > 0 {
			sb.WriteString(", ")
		}
		sb.WriteString(t.String())
	}
	if s.Where != nil {
		sb.WriteString(" WHERE ")
		sb.WriteString(s.Where.String())
	}
	if len(s.GroupBy) > 0 {
		sb.WriteString(" GROUP BY ")
		for i, c := range s.GroupBy {
			if i > 0 {
				sb.WriteString(", ")
			}
			sb.WriteString(c.String())
		}
	}
	if len(s.OrderBy) > 0 {
		sb.WriteString(" ORDER BY ")
		for i, o := range s.OrderBy {
			if i > 0 {
				sb.WriteString(", ")
			}
			sb.WriteString(o.String())
		}
	}
	return sb.String()
}

// SetClause is one assignment in an UPDATE statement.
type SetClause struct {
	Column string
	Value  Expr
}

// UpdateStmt is UPDATE table SET col=expr, ... WHERE pred.
type UpdateStmt struct {
	Table TableRef
	Sets  []SetClause
	Where Expr // nil if absent
	Top   int  // 0 means no TOP clause (used by update shells)
}

// Kind implements Statement.
func (u *UpdateStmt) Kind() StmtKind { return StmtUpdate }

// SQL implements Statement.
func (u *UpdateStmt) SQL() string {
	var sb strings.Builder
	sb.WriteString("UPDATE ")
	if u.Top > 0 {
		fmt.Fprintf(&sb, "TOP(%d) ", u.Top)
	}
	sb.WriteString(u.Table.String())
	sb.WriteString(" SET ")
	for i, set := range u.Sets {
		if i > 0 {
			sb.WriteString(", ")
		}
		sb.WriteString(set.Column)
		sb.WriteString(" = ")
		sb.WriteString(set.Value.String())
	}
	if u.Where != nil {
		sb.WriteString(" WHERE ")
		sb.WriteString(u.Where.String())
	}
	return sb.String()
}

// InsertStmt is INSERT INTO table VALUES (...), possibly multi-row. Only
// the number of tuples is kept: the tuner costs an insert by its row
// count, never by the inserted values.
type InsertStmt struct {
	Table TableRef
	Rows  int // number of VALUES tuples
}

// Kind implements Statement.
func (i *InsertStmt) Kind() StmtKind { return StmtInsert }

// SQL implements Statement. Each tuple renders as (DEFAULT), which parses
// back to the same row count.
func (i *InsertStmt) SQL() string {
	return "INSERT INTO " + i.Table.String() + " VALUES " + strings.TrimSuffix(strings.Repeat("(DEFAULT), ", i.Rows), ", ")
}

// DeleteStmt is DELETE FROM table WHERE pred.
type DeleteStmt struct {
	Table TableRef
	Where Expr // nil if absent
}

// Kind implements Statement.
func (d *DeleteStmt) Kind() StmtKind { return StmtDelete }

// SQL implements Statement.
func (d *DeleteStmt) SQL() string {
	s := "DELETE FROM " + d.Table.String()
	if d.Where != nil {
		s += " WHERE " + d.Where.String()
	}
	return s
}

// Conjuncts splits a predicate tree into its top-level AND conjuncts.
// A nil expression yields nil.
func Conjuncts(e Expr) []Expr {
	if e == nil {
		return nil
	}
	if b, ok := e.(*BoolExpr); ok && b.Op == "AND" {
		return append(Conjuncts(b.L), Conjuncts(b.R)...)
	}
	return []Expr{e}
}

// And combines predicates into a left-deep conjunction tree. Nil entries are
// skipped; And() of nothing returns nil.
func And(es ...Expr) Expr {
	var out Expr
	for _, e := range es {
		if e == nil {
			continue
		}
		if out == nil {
			out = e
		} else {
			out = &BoolExpr{Op: "AND", L: out, R: e}
		}
	}
	return out
}

// DedupColRefs sorts and deduplicates a slice of column references.
func DedupColRefs(cols []ColRef) []ColRef {
	sort.Slice(cols, func(i, j int) bool { return cols[i].Less(cols[j]) })
	out := cols[:0]
	for i, c := range cols {
		if i == 0 || cols[i-1] != c {
			out = append(out, c)
		}
	}
	return out
}
