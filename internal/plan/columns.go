package plan

import (
	"fmt"
	"slices"
	"strings"

	"repro/internal/catalog"
	"repro/internal/sqlparse"
)

// Projection pushdown. Before planning its FROM clause, a SELECT collects
// the names of every column it reads; each base-table reference then
// exposes only its columns among those names, so scans decode and emit
// narrow rows and every join key, join output, exchange, spill and
// aggregate input above them is narrow too. Binding resolves through the
// narrowed scopes unchanged; only the planner code that maps scope
// positions back to table columns (sargable ranges, zone filters, index
// ranges, clustered key order) sees the projection.

// colNames is a set of referenced column names, lower-cased and without
// qualifiers. A nil set means every column.
type colNames map[string]bool

func (s colNames) has(name string) bool {
	return s == nil || s[strings.ToLower(name)]
}

// referencedColumns collects every column name the SELECT reads: select
// list, WHERE, JOIN ON, GROUP BY, HAVING, ORDER BY, OVER, and the
// arguments of table-valued functions and CROSS APPLY. Qualifiers are
// dropped, so a name keeps that column in every table of the FROM
// clause — an over-approximation that keeps the rule simple. `*` and
// `t.*` keep every column (nil). A derived table plans its own SELECT and
// collects its own names.
func referencedColumns(sel *sqlparse.Select) colNames {
	names := colNames{}
	add := func(e sqlparse.Expr) {
		walkIdents(e, func(id *sqlparse.Ident) { names[strings.ToLower(id.Name)] = true })
	}
	for _, item := range sel.Items {
		if item.Star {
			return nil
		}
		add(item.Expr)
	}
	add(sel.Where)
	add(sel.Having)
	for _, g := range sel.GroupBy {
		add(g)
	}
	for _, o := range sel.OrderBy {
		add(o.Expr)
	}
	var from func(ref sqlparse.TableRef)
	from = func(ref sqlparse.TableRef) {
		switch t := ref.(type) {
		case *sqlparse.FuncRef:
			for _, a := range t.Args {
				add(a)
			}
		case *sqlparse.JoinRef:
			from(t.Left)
			from(t.Right)
			add(t.On)
		case *sqlparse.ApplyRef:
			from(t.Left)
			for _, a := range t.Fn.Args {
				add(a)
			}
		}
	}
	from(sel.From)
	return names
}

// scanColumns narrows a base table to the referenced columns: their
// table positions (ascending, the scan's projection) and the scope they
// bind in. The projection is never nil — providers read nil as "every
// column" — so a scan that needs none (a bare COUNT(*)) emits empty rows.
func scanColumns(tab *catalog.Table, qual string, need colNames) ([]int, []ColMeta) {
	proj := make([]int, 0, len(tab.Columns))
	var cols []ColMeta
	for i, c := range tab.Columns {
		if need.has(c.Name) {
			proj = append(proj, i)
			cols = append(cols, ColMeta{Qual: qual, Name: c.Name})
		}
	}
	return proj, cols
}

// colsDetail renders a scan's projection for EXPLAIN when it is
// narrower than the table, e.g. " COLS:(short_read_seq)".
func colsDetail(tab *catalog.Table, proj []int) string {
	if len(proj) == len(tab.Columns) {
		return ""
	}
	names := make([]string, len(proj))
	for i, c := range proj {
		names[i] = tab.Columns[c].Name
	}
	return fmt.Sprintf(" COLS:(%s)", strings.Join(names, ", "))
}

// orderedPrefix is the key order a scan advertises: the leading key
// columns up to the first one the projection drops.
func orderedPrefix(tab *catalog.Table, qual string, keyCols, proj []int) []ColMeta {
	var out []ColMeta
	for _, c := range keyCols {
		if !slices.Contains(proj, c) {
			break
		}
		out = append(out, ColMeta{Qual: qual, Name: tab.Columns[c].Name})
	}
	return out
}
