// Package aliasretain enforces the zero-copy decode contract documented in
// internal/msg/codec.go: in alias mode the decoder's string and []byte
// fields point directly into the transport's receive frame, which is only
// immutable until the connection reuses or releases the buffer. Handler
// code may therefore look at aliased fields freely, but any value that
// OUTLIVES the handler call — a struct field on the replica, a map entry,
// a package-level variable, a captured closure — must be cloned first
// (strings.Clone, a clone* helper such as replication's cloneInv, or a
// copying conversion like []byte(s)).
//
// The analyzer runs only in packages marked //globelint:aliased-input.
// Taint starts at msg.Message / msg.Invocation / msg.BatchUpdate
// parameters, propagates forward through local assignments, field
// selections, indexing, range statements, and string→named-string
// conversions (ids.ObjectID(s) still aliases s), and is cleansed by
// strings.Clone, any clone*/Clone* call, cross-kind string/[]byte
// conversions (they copy), and string concatenation (it allocates). A
// retention site — assignment, map/slice write, append, or closure capture
// rooted at the method receiver or a package-level variable — of a
// still-tainted value is a finding. Deliberate bounded-lifetime retention
// (e.g. a parked read released within the same exchange) is annotated
// //globelint:ignore aliasretain <reason>.
//
// For string-typed sinks the analyzer offers a mechanical fix: wrap the
// retained expression in strings.Clone and add the import.
//
// A leased message (msg.DecodeLeased) ends its lease with Release, after
// which the struct and its frame go to other receivers. In every package,
// marked or not, the analyzer flags a use of a message later in the same
// statement list as its x.Release() call, unless x was assigned anew in
// between: copy what is needed first, then release.
//
// The invariant dates to PR 1, which introduced the zero-copy DecodeAlias
// path, and PR 3, which made decoded string fields alias transport frames
// (unsafe.String over tcpnet handoff chunks) and established the
// clone-at-retention-site discipline this analyzer now enforces.
package aliasretain

import (
	"fmt"
	"go/ast"
	"go/types"
	"slices"
	"strings"

	"repro/internal/lint/lintkit"
)

// msgPath is the package whose decoded types carry aliased frame memory.
const msgPath = "repro/internal/msg"

// Analyzer is the aliasretain pass.
var Analyzer = &lintkit.Analyzer{
	Name: "aliasretain",
	Doc: "flags aliased decode output (msg.Message fields in //globelint:aliased-input packages) escaping " +
		"into long-lived state without a clone, and any use of a message after its Release; " +
		"offers strings.Clone fixes for string sinks",
	Run: run,
}

func run(pass *lintkit.Pass) error {
	retention := pass.HasPackageDirective("aliased-input")
	for _, f := range pass.Files {
		for _, decl := range f.Decls {
			if fd, ok := decl.(*ast.FuncDecl); ok && fd.Body != nil {
				if retention {
					checkFunc(pass, f, fd)
				}
				checkReleases(pass, fd.Body)
			}
		}
	}
	return nil
}

// checkReleases flags, in every statement list under body, a use of a
// message after the statement that releases it.
func checkReleases(pass *lintkit.Pass, body *ast.BlockStmt) {
	ast.Inspect(body, func(n ast.Node) bool {
		var list []ast.Stmt
		switch n := n.(type) {
		case *ast.BlockStmt:
			list = n.List
		case *ast.CaseClause:
			list = n.Body
		case *ast.CommClause:
			list = n.Body
		default:
			return true
		}
		for i, st := range list {
			if x := releasedMsg(pass, st); x != nil {
				usedAfterRelease(pass, x, list[i+1:])
			}
		}
		return true
	})
}

// releasedMsg returns x when st is the statement x.Release() on a message.
func releasedMsg(pass *lintkit.Pass, st ast.Stmt) ast.Expr {
	es, ok := st.(*ast.ExprStmt)
	if !ok {
		return nil
	}
	call, ok := es.X.(*ast.CallExpr)
	if !ok || len(call.Args) != 0 {
		return nil
	}
	sel, ok := call.Fun.(*ast.SelectorExpr)
	if !ok || sel.Sel.Name != "Release" || !isMessage(pass.Info.Types[sel.X].Type) {
		return nil
	}
	return sel.X
}

// isMessage reports whether t is (a pointer to) msg.Message.
func isMessage(t types.Type) bool {
	return isMsgType(t) && strings.HasSuffix(types.TypeString(t, nil), ".Message")
}

// usedAfterRelease reports the first use of released x in the statements
// that follow its Release, stopping where x is assigned anew.
func usedAfterRelease(pass *lintkit.Pass, x ast.Expr, rest []ast.Stmt) {
	key := exprString(x)
	root := rootIdent(pass, x)
	if root == nil {
		return // not a variable or a field path: nothing to follow
	}
	same := func(e ast.Expr) bool {
		return exprString(e) == key && rootIdent(pass, e) == root
	}
	for _, st := range rest {
		if as, ok := st.(*ast.AssignStmt); ok && slices.ContainsFunc(as.Lhs, same) {
			return
		}
		var use ast.Expr
		ast.Inspect(st, func(n ast.Node) bool {
			if e, ok := n.(ast.Expr); ok && use == nil && same(e) {
				use = e
			}
			return use == nil
		})
		if use != nil {
			pass.Reportf(use.Pos(), "aliasretain: %s used after %s.Release(): the message and the frame it aliases may already belong to another receiver — copy what is needed, then release", key, key)
			return
		}
	}
}

// rootIdent is the object of the identifier an lvalue chain starts from.
func rootIdent(pass *lintkit.Pass, e ast.Expr) types.Object {
	for {
		switch x := e.(type) {
		case *ast.Ident:
			return pass.Info.Uses[x]
		case *ast.SelectorExpr:
			e = x.X
		case *ast.ParenExpr:
			e = x.X
		default:
			return nil
		}
	}
}

// checker carries one function's forward taint state.
type checker struct {
	pass    *lintkit.Pass
	file    *ast.File
	recv    types.Object
	tainted map[types.Object]bool
}

func checkFunc(pass *lintkit.Pass, file *ast.File, fd *ast.FuncDecl) {
	c := &checker{pass: pass, file: file, tainted: map[types.Object]bool{}}
	if fd.Recv != nil && len(fd.Recv.List) > 0 && len(fd.Recv.List[0].Names) > 0 {
		c.recv = pass.Info.Defs[fd.Recv.List[0].Names[0]]
	}
	for _, field := range fd.Type.Params.List {
		t := pass.Info.Types[field.Type].Type
		if t != nil && isMsgType(t) {
			for _, name := range field.Names {
				if obj := pass.Info.Defs[name]; obj != nil {
					c.tainted[obj] = true
				}
			}
		}
	}
	c.walk(fd.Body)
}

// walk processes statements in source order so taint assignments precede
// the uses they feed.
func (c *checker) walk(n ast.Node) {
	ast.Inspect(n, func(m ast.Node) bool {
		switch m := m.(type) {
		case *ast.AssignStmt:
			c.assign(m)
		case *ast.RangeStmt:
			c.rangeStmt(m)
		case *ast.FuncLit:
			c.closure(m)
			return false // captures are the closure's finding; don't re-walk
		}
		return true
	})
}

// isMsgType reports whether t is (a pointer to) one of the aliased decode
// carriers.
func isMsgType(t types.Type) bool {
	if ptr, ok := t.(*types.Pointer); ok {
		t = ptr.Elem()
	}
	named, ok := t.(*types.Named)
	if !ok || named.Obj().Pkg() == nil || named.Obj().Pkg().Path() != msgPath {
		return false
	}
	switch named.Obj().Name() {
	case "Message", "Invocation", "BatchUpdate":
		return true
	}
	return false
}

// aliasable reports whether values of type t can carry frame aliases worth
// tracking: string-underlying, []byte, containers of those, or the msg
// carrier structs.
func aliasable(t types.Type) bool {
	if t == nil {
		return false
	}
	if isMsgType(t) {
		return true
	}
	switch u := t.Underlying().(type) {
	case *types.Basic:
		return u.Kind() == types.String
	case *types.Slice:
		return aliasable(u.Elem()) || isByteSlice(t)
	case *types.Map:
		return aliasable(u.Key()) || aliasable(u.Elem())
	case *types.Pointer:
		return aliasable(u.Elem())
	}
	return false
}

func isByteSlice(t types.Type) bool {
	s, ok := t.Underlying().(*types.Slice)
	if !ok {
		return false
	}
	b, ok := s.Elem().Underlying().(*types.Basic)
	return ok && b.Kind() == types.Byte
}

// taintedExpr reports whether e may alias decoder frame memory.
func (c *checker) taintedExpr(e ast.Expr) bool {
	switch e := e.(type) {
	case *ast.Ident:
		return c.tainted[c.pass.Info.Uses[e]]
	case *ast.ParenExpr:
		return c.taintedExpr(e.X)
	case *ast.StarExpr:
		return c.taintedExpr(e.X)
	case *ast.UnaryExpr:
		return c.taintedExpr(e.X)
	case *ast.SelectorExpr:
		t := c.pass.Info.Types[e].Type
		return aliasable(t) && c.taintedExpr(e.X)
	case *ast.IndexExpr:
		return c.taintedExpr(e.X)
	case *ast.SliceExpr:
		return c.taintedExpr(e.X) // sub-slices share the backing array
	case *ast.CompositeLit:
		for _, elt := range e.Elts {
			if kv, ok := elt.(*ast.KeyValueExpr); ok {
				if c.taintedExpr(kv.Value) || c.taintedExpr(kv.Key) {
					return true
				}
			} else if c.taintedExpr(elt) {
				return true
			}
		}
		return false
	case *ast.BinaryExpr:
		return false // concatenation and comparisons allocate or produce bools
	case *ast.CallExpr:
		return c.taintedCall(e)
	}
	return false
}

// taintedCall handles conversions (which may preserve aliasing) and calls
// (whose results are fresh unless they are identity-ish).
func (c *checker) taintedCall(call *ast.CallExpr) bool {
	if len(call.Args) != 1 {
		return false
	}
	// A conversion T(x): same-kind string conversions (ids.ObjectID(s))
	// reuse x's bytes; string<->[]byte conversions copy.
	if tv, ok := c.pass.Info.Types[call.Fun]; ok && tv.IsType() {
		to := tv.Type
		from := c.pass.Info.Types[call.Args[0]].Type
		if from == nil {
			return false
		}
		toStr := isString(to)
		fromStr := isString(from)
		if toStr != fromStr {
			return false // string<->[]byte conversion copies
		}
		return c.taintedExpr(call.Args[0])
	}
	return false // call results (incl. strings.Clone, clone* helpers) are fresh
}

func isString(t types.Type) bool {
	b, ok := t.Underlying().(*types.Basic)
	return ok && b.Kind() == types.String
}

// rootObj walks an lvalue chain (selectors, indexes, derefs) to its base
// identifier's object.
func (c *checker) rootObj(e ast.Expr) types.Object {
	for {
		switch x := e.(type) {
		case *ast.Ident:
			if obj := c.pass.Info.Uses[x]; obj != nil {
				return obj
			}
			return c.pass.Info.Defs[x]
		case *ast.SelectorExpr:
			e = x.X
		case *ast.IndexExpr:
			e = x.X
		case *ast.StarExpr:
			e = x.X
		case *ast.ParenExpr:
			e = x.X
		default:
			return nil
		}
	}
}

// longLived reports whether an lvalue rooted at obj outlives the handler:
// the method receiver or a package-level variable.
func (c *checker) longLived(obj types.Object) bool {
	if obj == nil {
		return false
	}
	if c.recv != nil && obj == c.recv {
		return true
	}
	v, ok := obj.(*types.Var)
	return ok && v.Pkg() != nil && v.Parent() == v.Pkg().Scope()
}

func (c *checker) assign(as *ast.AssignStmt) {
	// append special form: x = append(x, elems...)
	if len(as.Lhs) == 1 && len(as.Rhs) == 1 {
		if call, ok := as.Rhs[0].(*ast.CallExpr); ok {
			if id, ok := call.Fun.(*ast.Ident); ok && id.Name == "append" {
				if _, isBuiltin := c.pass.Info.Uses[id].(*types.Builtin); isBuiltin || c.pass.Info.Uses[id] == nil {
					c.appendAssign(as, call)
					return
				}
			}
		}
	}
	for i, lhs := range as.Lhs {
		var rhs ast.Expr
		if len(as.Rhs) == len(as.Lhs) {
			rhs = as.Rhs[i]
		} else if len(as.Rhs) == 1 {
			rhs = as.Rhs[0] // multi-value call: results are fresh
		}
		if rhs == nil {
			continue
		}
		if id, ok := lhs.(*ast.Ident); ok {
			// Local (re)definition: propagate, don't report.
			obj := c.pass.Info.Defs[id]
			if obj == nil {
				obj = c.pass.Info.Uses[id]
			}
			if obj != nil && !c.longLived(obj) {
				if len(as.Rhs) == len(as.Lhs) {
					c.tainted[obj] = c.taintedExpr(rhs)
				}
				continue
			}
		}
		root := c.rootObj(lhs)
		if !c.longLived(root) {
			continue
		}
		if len(as.Rhs) == len(as.Lhs) && c.taintedExpr(rhs) {
			c.report(rhs, root)
		}
		// Tainted map keys are retained just like values.
		if ix, ok := lhs.(*ast.IndexExpr); ok && c.taintedExpr(ix.Index) {
			c.report(ix.Index, root)
		}
	}
}

// appendAssign handles x = append(x, ...): taints locals, reports
// long-lived destinations whose new elements are tainted. Appending into a
// []byte copies the bytes themselves, so byte appends cleanse — the
// canonical append([]byte(nil), m.Payload...) clone stays legal.
func (c *checker) appendAssign(as *ast.AssignStmt, call *ast.CallExpr) {
	lhs := as.Lhs[0]
	byteAppend := isByteSlice(c.pass.Info.Types[call].Type)
	if id, ok := lhs.(*ast.Ident); ok {
		obj := c.pass.Info.Defs[id]
		if obj == nil {
			obj = c.pass.Info.Uses[id]
		}
		if obj != nil && !c.longLived(obj) {
			if byteAppend {
				// append may still return the base's backing array.
				c.tainted[obj] = c.taintedExpr(call.Args[0])
				return
			}
			for _, arg := range call.Args {
				if c.taintedExpr(arg) {
					c.tainted[obj] = true
				}
			}
			return
		}
	}
	root := c.rootObj(lhs)
	if !c.longLived(root) {
		return
	}
	if byteAppend {
		if c.taintedExpr(call.Args[0]) {
			c.report(call.Args[0], root)
		}
		return
	}
	for _, arg := range call.Args[1:] {
		if c.taintedExpr(arg) {
			c.report(arg, root)
		}
	}
}

func (c *checker) rangeStmt(r *ast.RangeStmt) {
	if !c.taintedExpr(r.X) {
		return
	}
	for _, v := range []ast.Expr{r.Key, r.Value} {
		id, ok := v.(*ast.Ident)
		if !ok {
			continue
		}
		obj := c.pass.Info.Defs[id]
		if obj == nil {
			obj = c.pass.Info.Uses[id]
		}
		if obj != nil && aliasable(obj.Type()) {
			c.tainted[obj] = true
		}
	}
}

// closure flags tainted captures: a FuncLit that references an aliased
// value outlives the statement it appears in often enough (timers, parked
// work, handler registration) that any capture is treated as retention.
func (c *checker) closure(fl *ast.FuncLit) {
	ast.Inspect(fl.Body, func(n ast.Node) bool {
		id, ok := n.(*ast.Ident)
		if !ok {
			return true
		}
		obj := c.pass.Info.Uses[id]
		if obj != nil && c.tainted[obj] {
			c.pass.Reportf(id.Pos(), "aliasretain: closure captures %s, which aliases the decoder's receive frame; the closure may run after the frame is reused — clone before capturing", id.Name)
		}
		return true
	})
}

// report emits the retention finding, with a strings.Clone fix when the
// retained expression is string-typed.
func (c *checker) report(e ast.Expr, root types.Object) {
	where := "package-level state"
	if c.recv != nil && root == c.recv {
		where = fmt.Sprintf("long-lived state on %s", root.Name())
	}
	d := lintkit.Diagnostic{
		Analyzer: "aliasretain",
		Pos:      e.Pos(),
		Message: fmt.Sprintf("aliasretain: %s retained in %s aliases the decoder's receive frame, which the transport reuses after the handler returns — clone it (strings.Clone / cloneInv / []byte copy) at the retention site",
			exprString(e), where),
	}
	if t := c.pass.Info.Types[e].Type; t != nil && isString(t) {
		edits := []lintkit.TextEdit{
			{Pos: e.Pos(), End: e.Pos(), NewText: "strings.Clone("},
			{Pos: e.End(), End: e.End(), NewText: ")"},
		}
		if imp := c.importEdit(); imp != nil {
			edits = append(edits, *imp)
		}
		d.Fixes = []lintkit.SuggestedFix{{
			Message: fmt.Sprintf("wrap %s in strings.Clone", exprString(e)),
			Edits:   edits,
		}}
	}
	c.pass.Report(d)
}

// importEdit returns an edit adding `"strings"` to the file's imports, or
// nil if already imported.
func (c *checker) importEdit() *lintkit.TextEdit {
	var last *ast.ImportSpec
	for _, imp := range c.file.Imports {
		if strings.Trim(imp.Path.Value, `"`) == "strings" {
			return nil
		}
		last = imp
	}
	if last == nil {
		return nil // no import block to extend; leave the import to gofmt
	}
	pos := last.End()
	return &lintkit.TextEdit{Pos: pos, End: pos, NewText: "\n\t\"strings\""}
}

func exprString(e ast.Expr) string {
	switch e := e.(type) {
	case *ast.Ident:
		return e.Name
	case *ast.SelectorExpr:
		return exprString(e.X) + "." + e.Sel.Name
	case *ast.IndexExpr:
		return exprString(e.X) + "[...]"
	case *ast.CallExpr:
		return exprString(e.Fun) + "(...)"
	case *ast.CompositeLit:
		return "composite literal"
	}
	return "value"
}
