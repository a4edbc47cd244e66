package plan

import (
	"fmt"
	"strings"

	"repro/internal/expr"
	"repro/internal/sqlparse"
	"repro/internal/sqltypes"
)

// scope resolves column names to positions in the current row layout.
type scope struct {
	cols []ColMeta
}

// resolve finds a column by (optional) qualifier and name.
func (s *scope) resolve(qual, name string) (int, error) {
	found := -1
	for i, c := range s.cols {
		if !strings.EqualFold(c.Name, name) {
			continue
		}
		if qual != "" && !strings.EqualFold(c.Qual, qual) {
			continue
		}
		if found >= 0 {
			return 0, fmt.Errorf("plan: ambiguous column %q", displayName(qual, name))
		}
		found = i
	}
	if found < 0 {
		return 0, fmt.Errorf("plan: unknown column %q", displayName(qual, name))
	}
	return found, nil
}

func displayName(qual, name string) string {
	if qual != "" {
		return qual + "." + name
	}
	return name
}

// binder converts sqlparse expressions to executable expr trees.
type binder struct {
	pl    *Planner
	scope *scope
	// aggSubst maps rendered aggregate-call keys to output column
	// positions; set while binding post-aggregation expressions.
	aggSubst map[string]int
	// allowAggs permits aggregate calls (they are collected, not bound).
	sawAggregate bool
}

// bind converts one expression.
func (b *binder) bind(e sqlparse.Expr) (expr.Expr, error) {
	switch t := e.(type) {
	case *sqlparse.NumberLit:
		if t.IsFloat {
			return &expr.Lit{V: sqltypes.NewFloat(t.F)}, nil
		}
		return &expr.Lit{V: sqltypes.NewInt(t.I)}, nil
	case *sqlparse.StringLit:
		return &expr.Lit{V: sqltypes.NewString(t.S)}, nil
	case *sqlparse.NullLit:
		return &expr.Lit{V: sqltypes.Null}, nil
	case *sqlparse.Ident:
		if b.aggSubst != nil {
			if idx, ok := b.aggSubst[exprKey(t)]; ok {
				return &expr.Col{Idx: idx, Name: displayName(t.Qualifier, t.Name)}, nil
			}
		}
		if b.scope == nil {
			return nil, fmt.Errorf("plan: column %q referenced without a FROM clause", displayName(t.Qualifier, t.Name))
		}
		idx, err := b.scope.resolve(t.Qualifier, t.Name)
		if err != nil {
			return nil, err
		}
		return &expr.Col{Idx: idx, Name: displayName(t.Qualifier, t.Name)}, nil
	case *sqlparse.Unary:
		x, err := b.bind(t.X)
		if err != nil {
			return nil, err
		}
		if t.Op == "NOT" {
			return &expr.Not{X: x}, nil
		}
		return &expr.Arith{Op: expr.OpSub, L: &expr.Lit{V: sqltypes.NewInt(0)}, R: x}, nil
	case *sqlparse.Binary:
		return b.bindBinary(t)
	case *sqlparse.IsNullExpr:
		x, err := b.bind(t.X)
		if err != nil {
			return nil, err
		}
		return &expr.IsNull{X: x, Negate: t.Not}, nil
	case *sqlparse.LikeExpr:
		x, err := b.bind(t.X)
		if err != nil {
			return nil, err
		}
		var out expr.Expr = &expr.Like{X: x, Pattern: t.Pattern}
		if t.Not {
			out = &expr.Not{X: out}
		}
		return out, nil
	case *sqlparse.InExpr:
		// IN expands to an OR chain of equalities (NOT IN negates it), so
		// execution reuses the comparison operators and three-valued logic.
		if len(t.List) == 0 {
			return nil, fmt.Errorf("plan: IN requires at least one value")
		}
		x, err := b.bind(t.X)
		if err != nil {
			return nil, err
		}
		var out expr.Expr
		for _, item := range t.List {
			rhs, err := b.bind(item)
			if err != nil {
				return nil, err
			}
			eq := &expr.Cmp{Op: expr.CmpEq, L: x, R: rhs}
			if out == nil {
				out = eq
			} else {
				out = &expr.Logic{L: out, R: eq}
			}
		}
		if t.Not {
			out = &expr.Not{X: out}
		}
		return out, nil
	case *sqlparse.FuncCall:
		return b.bindCall(t)
	}
	return nil, fmt.Errorf("plan: unsupported expression %T", e)
}

func (b *binder) bindBinary(t *sqlparse.Binary) (expr.Expr, error) {
	l, err := b.bind(t.L)
	if err != nil {
		return nil, err
	}
	r, err := b.bind(t.R)
	if err != nil {
		return nil, err
	}
	switch t.Op {
	case "AND":
		return &expr.Logic{And: true, L: l, R: r}, nil
	case "OR":
		return &expr.Logic{L: l, R: r}, nil
	case "+", "-", "*", "/", "%":
		return &expr.Arith{Op: expr.BinOp(t.Op[0]), L: l, R: r}, nil
	case "=":
		return &expr.Cmp{Op: expr.CmpEq, L: l, R: r}, nil
	case "<>":
		return &expr.Cmp{Op: expr.CmpNe, L: l, R: r}, nil
	case "<":
		return &expr.Cmp{Op: expr.CmpLt, L: l, R: r}, nil
	case "<=":
		return &expr.Cmp{Op: expr.CmpLe, L: l, R: r}, nil
	case ">":
		return &expr.Cmp{Op: expr.CmpGt, L: l, R: r}, nil
	case ">=":
		return &expr.Cmp{Op: expr.CmpGe, L: l, R: r}, nil
	}
	return nil, fmt.Errorf("plan: unsupported operator %q", t.Op)
}

func (b *binder) bindCall(t *sqlparse.FuncCall) (expr.Expr, error) {
	// Aggregates and window calls are replaced by their output column
	// when binding post-aggregation/post-window expressions.
	if b.aggSubst != nil {
		if idx, ok := b.aggSubst[exprKey(t)]; ok {
			return &expr.Col{Idx: idx, Name: strings.ToUpper(t.Name) + "(...)"}, nil
		}
	}
	if t.Over != nil {
		return nil, fmt.Errorf("plan: window function %s not allowed here", t.Name)
	}
	if _, isAgg := b.pl.Provider.Agg(t.Name); isAgg {
		b.sawAggregate = true
		return nil, fmt.Errorf("plan: aggregate %s is not valid in this context", strings.ToUpper(t.Name))
	}
	fn, ok := b.pl.Provider.Scalar(t.Name)
	if !ok {
		return nil, fmt.Errorf("plan: unknown function %s", strings.ToUpper(t.Name))
	}
	if t.Star {
		return nil, fmt.Errorf("plan: %s(*) is not valid", strings.ToUpper(t.Name))
	}
	args := make([]expr.Expr, len(t.Args))
	for i, a := range t.Args {
		x, err := b.bind(a)
		if err != nil {
			return nil, err
		}
		args[i] = x
	}
	return &expr.Call{Name: strings.ToUpper(t.Name), Fn: fn, Args: args}, nil
}

// exprKey renders a parsed expression into a canonical string for
// structural equality (aggregate dedup, GROUP BY matching).
func exprKey(e sqlparse.Expr) string {
	switch t := e.(type) {
	case nil:
		return "<nil>"
	case *sqlparse.NumberLit:
		if t.IsFloat {
			return fmt.Sprintf("f:%v", t.F)
		}
		return fmt.Sprintf("i:%d", t.I)
	case *sqlparse.StringLit:
		return fmt.Sprintf("s:%q", t.S)
	case *sqlparse.NullLit:
		return "null"
	case *sqlparse.Ident:
		return "id:" + strings.ToLower(displayName(t.Qualifier, t.Name))
	case *sqlparse.Unary:
		return fmt.Sprintf("u:%s(%s)", t.Op, exprKey(t.X))
	case *sqlparse.Binary:
		return fmt.Sprintf("b:%s(%s,%s)", t.Op, exprKey(t.L), exprKey(t.R))
	case *sqlparse.IsNullExpr:
		return fmt.Sprintf("isnull:%v(%s)", t.Not, exprKey(t.X))
	case *sqlparse.LikeExpr:
		return fmt.Sprintf("like:%v(%s,%q)", t.Not, exprKey(t.X), t.Pattern)
	case *sqlparse.InExpr:
		parts := make([]string, len(t.List))
		for i, item := range t.List {
			parts[i] = exprKey(item)
		}
		return fmt.Sprintf("in:%v(%s;%s)", t.Not, exprKey(t.X), strings.Join(parts, ","))
	case *sqlparse.FuncCall:
		parts := make([]string, len(t.Args))
		for i, a := range t.Args {
			parts[i] = exprKey(a)
		}
		star := ""
		if t.Star {
			star = "*"
		}
		over := ""
		if t.Over != nil {
			var ov []string
			for _, o := range t.Over.OrderBy {
				ov = append(ov, fmt.Sprintf("%s:%v", exprKey(o.Expr), o.Desc))
			}
			over = " over(" + strings.Join(ov, ",") + ")"
		}
		return fmt.Sprintf("fn:%s(%s%s)%s", strings.ToLower(t.Name), star, strings.Join(parts, ","), over)
	}
	return fmt.Sprintf("?%T", e)
}

// collectAggCalls walks an expression collecting aggregate invocations
// (deduplicated by exprKey) in deterministic order.
func (pl *Planner) collectAggCalls(e sqlparse.Expr, seen map[string]*sqlparse.FuncCall, order *[]string) {
	switch t := e.(type) {
	case *sqlparse.Unary:
		pl.collectAggCalls(t.X, seen, order)
	case *sqlparse.Binary:
		pl.collectAggCalls(t.L, seen, order)
		pl.collectAggCalls(t.R, seen, order)
	case *sqlparse.IsNullExpr:
		pl.collectAggCalls(t.X, seen, order)
	case *sqlparse.LikeExpr:
		pl.collectAggCalls(t.X, seen, order)
	case *sqlparse.InExpr:
		pl.collectAggCalls(t.X, seen, order)
		for _, item := range t.List {
			pl.collectAggCalls(item, seen, order)
		}
	case *sqlparse.FuncCall:
		if t.Over != nil {
			// Window functions aggregate over the window, not the group;
			// their ORDER BY may still contain aggregates.
			for _, o := range t.Over.OrderBy {
				pl.collectAggCalls(o.Expr, seen, order)
			}
			return
		}
		if _, ok := pl.Provider.Agg(t.Name); ok {
			key := exprKey(t)
			if _, dup := seen[key]; !dup {
				seen[key] = t
				*order = append(*order, key)
			}
			return
		}
		for _, a := range t.Args {
			pl.collectAggCalls(a, seen, order)
		}
	}
}

// hasWindow reports whether the expression contains a window function.
func hasWindow(e sqlparse.Expr) bool {
	switch t := e.(type) {
	case *sqlparse.Unary:
		return hasWindow(t.X)
	case *sqlparse.Binary:
		return hasWindow(t.L) || hasWindow(t.R)
	case *sqlparse.IsNullExpr:
		return hasWindow(t.X)
	case *sqlparse.FuncCall:
		if t.Over != nil {
			return true
		}
		for _, a := range t.Args {
			if hasWindow(a) {
				return true
			}
		}
	}
	return false
}

// walkIdents calls fn for every column reference in e.
func walkIdents(e sqlparse.Expr, fn func(*sqlparse.Ident)) {
	switch t := e.(type) {
	case *sqlparse.Ident:
		fn(t)
	case *sqlparse.Unary:
		walkIdents(t.X, fn)
	case *sqlparse.Binary:
		walkIdents(t.L, fn)
		walkIdents(t.R, fn)
	case *sqlparse.IsNullExpr:
		walkIdents(t.X, fn)
	case *sqlparse.LikeExpr:
		walkIdents(t.X, fn)
	case *sqlparse.InExpr:
		walkIdents(t.X, fn)
		for _, item := range t.List {
			walkIdents(item, fn)
		}
	case *sqlparse.FuncCall:
		for _, a := range t.Args {
			walkIdents(a, fn)
		}
		if t.Over != nil {
			for _, o := range t.Over.OrderBy {
				walkIdents(o.Expr, fn)
			}
		}
	}
}

// columnRefs collects the distinct (qualifier, name) pairs referenced.
func columnRefs(e sqlparse.Expr, out map[string]bool) {
	walkIdents(e, func(id *sqlparse.Ident) {
		out[strings.ToLower(displayName(id.Qualifier, id.Name))] = true
	})
}

// refsResolvableIn reports whether every column reference in e resolves in
// the given scope (used to decide predicate pushdown sides).
func refsResolvableIn(e sqlparse.Expr, s *scope) bool {
	refs := map[string]bool{}
	columnRefs(e, refs)
	for ref := range refs {
		qual, name := "", ref
		if i := strings.IndexByte(ref, '.'); i >= 0 {
			qual, name = ref[:i], ref[i+1:]
		}
		if _, err := s.resolve(qual, name); err != nil {
			return false
		}
	}
	return true
}

// splitConjuncts flattens a WHERE tree into AND-ed conjuncts.
func splitConjuncts(e sqlparse.Expr) []sqlparse.Expr {
	if b, ok := e.(*sqlparse.Binary); ok && b.Op == "AND" {
		return append(splitConjuncts(b.L), splitConjuncts(b.R)...)
	}
	return []sqlparse.Expr{e}
}

// joinConjuncts rebuilds an expression from conjuncts.
func joinConjuncts(list []sqlparse.Expr) sqlparse.Expr {
	if len(list) == 0 {
		return nil
	}
	out := list[0]
	for _, e := range list[1:] {
		out = &sqlparse.Binary{Op: "AND", L: out, R: e}
	}
	return out
}

// BindConstant binds an expression that may not reference any columns
// (INSERT ... VALUES items, TVF arguments outside APPLY).
func (pl *Planner) BindConstant(e sqlparse.Expr) (expr.Expr, error) {
	b := &binder{pl: pl}
	return b.bind(e)
}

// bindAll binds a list of expressions with the same binder.
func (b *binder) bindAll(list []sqlparse.Expr) ([]expr.Expr, error) {
	out := make([]expr.Expr, len(list))
	for i, e := range list {
		x, err := b.bind(e)
		if err != nil {
			return nil, err
		}
		out[i] = x
	}
	return out, nil
}
