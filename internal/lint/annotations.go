package lint

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"strings"
)

// This file scans and resolves the two declarative annotations the deep
// checks consume:
//
//	//soravet:pool <Type> invalidated-by <Method,Owner.Method,...|none> <reason>
//	//soravet:hotpath <reason>
//
// A pool annotation may sit anywhere in the declaring package (by
// convention in the pooled type's doc comment); it names the type
// explicitly, so attachment is by name, not by line. Invalidator items
// are either a bare method name on the pooled type itself (Cancel) or
// Owner.Method for a method of another type in the same package that
// takes the handle as receiver-adjacent argument (Kernel.releaseTimer).
// "none" declares a documentation-only contract: the type is pooled or
// arena-allocated but handles are never invalidated while reachable
// (e.g. span slabs), so poolsafe applies no hazard rules to it.
//
// A hotpath annotation must sit in the doc comment of a function or
// method declaration; that function becomes a root for the hotpath
// check's reachability scan.
//
// Both are scanned module-wide in one pass (contracts declared in
// internal/sim must be visible when analyzing internal/cluster), lazily
// on first use and memoized on the Module. Malformed annotations are
// reported under the "directive" pseudo-check for whichever package
// they sit in.

const (
	poolDirective    = directivePrefix + "pool"    // //soravet:pool
	hotpathDirective = directivePrefix + "hotpath" // //soravet:hotpath
)

// poolContract is one resolved //soravet:pool annotation.
type poolContract struct {
	typeName *types.TypeName // the pooled named type (handles are *T)
	pkg      *Package        // declaring package
	reason   string
	pos      token.Pos
	// invalidators resolved to their function objects; empty for
	// "invalidated-by none" contracts.
	invalidators map[*types.Func]bool
	// display forms of the invalidator list, for messages.
	invalidatorNames []string
}

// hotRoot is one resolved //soravet:hotpath annotation.
type hotRoot struct {
	fn     *types.Func
	decl   *ast.FuncDecl
	pkg    *Package
	reason string
	label  string // e.g. "sim.Timer.Reset" or "cluster.startVisit"
}

// annProblem is a malformed-annotation finding waiting to be reported
// for its package.
type annProblem struct {
	pos token.Pos
	msg string
}

// funcDeclInfo locates a function's declaration for body analysis.
type funcDeclInfo struct {
	decl *ast.FuncDecl
	pkg  *Package
}

// annotations is the module-wide resolved annotation set, plus two
// module-wide indexes both deep checks need: every function's
// declaration, and which functions each variable or struct field is
// ever assigned (for resolving stored callbacks like `g.fireFn =
// g.fire` back to the method that will run).
type annotations struct {
	pools      []*poolContract
	poolByType map[*types.TypeName]*poolContract
	roots      []*hotRoot
	problems   map[*Package][]annProblem

	declOf        map[*types.Func]funcDeclInfo
	funcsStoredIn map[types.Object][]*types.Func
}

// annotations scans the module on first call and memoizes the result.
func (m *Module) annotations() *annotations {
	if m.anns != nil {
		return m.anns
	}
	a := &annotations{
		poolByType:    make(map[*types.TypeName]*poolContract),
		problems:      make(map[*Package][]annProblem),
		declOf:        make(map[*types.Func]funcDeclInfo),
		funcsStoredIn: make(map[types.Object][]*types.Func),
	}
	for _, p := range m.Pkgs {
		a.scanPackage(p)
		a.indexPackage(p)
	}
	m.anns = a
	return a
}

// indexPackage fills the declaration and stored-callback indexes.
func (a *annotations) indexPackage(p *Package) {
	for _, f := range p.Files {
		for _, d := range f.Decls {
			fd, ok := d.(*ast.FuncDecl)
			if !ok {
				continue
			}
			if fn, ok := p.Info.Defs[fd.Name].(*types.Func); ok {
				a.declOf[fn] = funcDeclInfo{decl: fd, pkg: p}
			}
		}
		ast.Inspect(f, func(n ast.Node) bool {
			switch n := n.(type) {
			case *ast.AssignStmt:
				if len(n.Lhs) != len(n.Rhs) {
					return true
				}
				for i, lhs := range n.Lhs {
					fn := funcValueOf(p.Info, n.Rhs[i])
					if fn == nil {
						continue
					}
					if obj := assignTargetObj(p.Info, lhs); obj != nil {
						a.funcsStoredIn[obj] = append(a.funcsStoredIn[obj], fn)
					}
				}
			case *ast.CompositeLit:
				for _, elt := range n.Elts {
					kv, ok := elt.(*ast.KeyValueExpr)
					if !ok {
						continue
					}
					fn := funcValueOf(p.Info, kv.Value)
					if fn == nil {
						continue
					}
					if key, ok := kv.Key.(*ast.Ident); ok {
						if obj := p.Info.Uses[key]; obj != nil {
							a.funcsStoredIn[obj] = append(a.funcsStoredIn[obj], fn)
						}
					}
				}
			}
			return true
		})
	}
}

// funcValueOf resolves an expression to the declared function it
// denotes as a value: a method value (g.fire) or a function name.
func funcValueOf(info *types.Info, e ast.Expr) *types.Func {
	switch e := ast.Unparen(e).(type) {
	case *ast.Ident:
		fn, _ := info.Uses[e].(*types.Func)
		return fn
	case *ast.SelectorExpr:
		if sel, ok := info.Selections[e]; ok && sel.Kind() == types.MethodVal {
			fn, _ := info.Uses[e.Sel].(*types.Func)
			return fn
		}
	}
	return nil
}

// assignTargetObj identifies the variable or struct field an assignment
// writes to, or nil when the target is not a plain ident/field.
func assignTargetObj(info *types.Info, lhs ast.Expr) types.Object {
	switch lhs := ast.Unparen(lhs).(type) {
	case *ast.Ident:
		return info.ObjectOf(lhs)
	case *ast.SelectorExpr:
		if sel, ok := info.Selections[lhs]; ok && sel.Kind() == types.FieldVal {
			return info.Uses[lhs.Sel]
		}
	}
	return nil
}

// staticCallee resolves a call expression to the declared function or
// method it statically invokes, or nil for dynamic calls (function
// values, interface methods resolve to their interface *types.Func,
// which has no declaration in declOf and therefore also cuts the
// graph), conversions, and builtins. Calls of generic functions and of
// methods of generic types resolve to the generic declaration: the
// instantiated *types.Func the type checker records is never a key of
// declOf.
func staticCallee(info *types.Info, call *ast.CallExpr) *types.Func {
	fun := ast.Unparen(call.Fun)
	switch inst := fun.(type) { // explicit instantiation: f[T](...)
	case *ast.IndexExpr:
		fun = ast.Unparen(inst.X)
	case *ast.IndexListExpr:
		fun = ast.Unparen(inst.X)
	}
	var fn *types.Func
	switch fun := fun.(type) {
	case *ast.Ident:
		fn, _ = info.Uses[fun].(*types.Func)
	case *ast.SelectorExpr:
		fn, _ = info.Uses[fun.Sel].(*types.Func)
	}
	if fn == nil {
		return nil
	}
	return fn.Origin()
}

func (a *annotations) problem(p *Package, pos token.Pos, format string, args ...any) {
	a.problems[p] = append(a.problems[p], annProblem{pos: pos, msg: fmt.Sprintf(format, args...)})
}

func (a *annotations) scanPackage(p *Package) {
	// hotpath annotations attach via function doc comments; remember
	// which comments those are so stray ones can be flagged.
	attached := make(map[*ast.Comment]bool)
	for _, f := range p.Files {
		for _, d := range f.Decls {
			fd, ok := d.(*ast.FuncDecl)
			if !ok || fd.Doc == nil {
				continue
			}
			for _, c := range fd.Doc.List {
				if rest, ok := cutDirective(c.Text, hotpathDirective); ok {
					attached[c] = true
					a.addHotRoot(p, fd, c.Pos(), rest)
				}
			}
		}
	}
	for _, f := range p.Files {
		for _, cg := range f.Comments {
			for _, c := range cg.List {
				if rest, ok := cutDirective(c.Text, poolDirective); ok {
					a.addPool(p, c.Pos(), rest)
				} else if _, ok := cutDirective(c.Text, hotpathDirective); ok && !attached[c] {
					a.problem(p, c.Pos(), "//soravet:hotpath does not attach to a function declaration; place it in the doc comment of the function it pins")
				}
			}
		}
	}
}

// cutDirective strips a directive head ("//soravet:pool") plus one
// space (or end of comment) from a comment's text, rejecting prefixes
// that merely share the head (//soravet:pooling).
func cutDirective(text, head string) (rest string, ok bool) {
	if !strings.HasPrefix(text, head) {
		return "", false
	}
	rest = text[len(head):]
	if rest == "" {
		return "", true
	}
	if rest[0] != ' ' && rest[0] != '\t' {
		return "", false
	}
	return strings.TrimSpace(rest), true
}

func (a *annotations) addHotRoot(p *Package, fd *ast.FuncDecl, pos token.Pos, reason string) {
	if reason == "" {
		a.problem(p, pos, "//soravet:hotpath needs a reason naming the AllocsPerRun pin or benchmark it protects")
		return
	}
	fn, _ := p.Info.Defs[fd.Name].(*types.Func)
	if fn == nil {
		return
	}
	a.roots = append(a.roots, &hotRoot{fn: fn, decl: fd, pkg: p, reason: reason, label: funcLabel(fn)})
}

// funcLabel renders a function for messages: pkg.Func or pkg.Recv.Func.
func funcLabel(fn *types.Func) string {
	pkg := ""
	if fn.Pkg() != nil {
		pkg = fn.Pkg().Name() + "."
	}
	if sig, ok := fn.Type().(*types.Signature); ok && sig.Recv() != nil {
		if n := namedOf(sig.Recv().Type()); n != nil {
			return pkg + n.Obj().Name() + "." + fn.Name()
		}
	}
	return pkg + fn.Name()
}

// namedOf unwraps a (possibly pointer) type to its Named form.
func namedOf(t types.Type) *types.Named {
	if ptr, ok := t.(*types.Pointer); ok {
		t = ptr.Elem()
	}
	n, _ := t.(*types.Named)
	return n
}

func (a *annotations) addPool(p *Package, pos token.Pos, rest string) {
	fields := strings.Fields(rest)
	if len(fields) < 3 || fields[1] != "invalidated-by" {
		a.problem(p, pos, "malformed //soravet:pool directive; grammar is //soravet:pool <Type> invalidated-by <Method,Owner.Method,...|none> <reason>")
		return
	}
	typeName, list := fields[0], fields[2]
	reason := strings.Join(fields[3:], " ")
	if reason == "" {
		a.problem(p, pos, "//soravet:pool %s needs a reason describing the handle-validity contract", typeName)
		return
	}
	obj := p.Pkg.Scope().Lookup(typeName)
	tn, _ := obj.(*types.TypeName)
	if tn == nil {
		a.problem(p, pos, "//soravet:pool names %q, which is not a type in package %s", typeName, p.Pkg.Name())
		return
	}
	if a.poolByType[tn] != nil {
		a.problem(p, pos, "duplicate //soravet:pool directive for %s", typeName)
		return
	}
	c := &poolContract{typeName: tn, pkg: p, reason: reason, pos: pos, invalidators: make(map[*types.Func]bool)}
	if list != "none" {
		for _, item := range strings.Split(list, ",") {
			fn := a.resolveInvalidator(p, tn, item)
			if fn == nil {
				a.problem(p, pos, "//soravet:pool %s: invalidator %q does not resolve to a method in package %s", typeName, item, p.Pkg.Name())
				continue
			}
			c.invalidators[fn] = true
			c.invalidatorNames = append(c.invalidatorNames, item)
		}
		if len(c.invalidators) == 0 {
			return // all items failed to resolve; problems already recorded
		}
	}
	a.pools = append(a.pools, c)
	a.poolByType[tn] = c
}

// resolveInvalidator maps an invalidator item to its *types.Func: a
// bare name is a method on the pooled type; Owner.Method is a method on
// another type of the same package.
func (a *annotations) resolveInvalidator(p *Package, pooled *types.TypeName, item string) *types.Func {
	recv := pooled
	name := item
	if owner, method, ok := strings.Cut(item, "."); ok {
		obj := p.Pkg.Scope().Lookup(owner)
		tn, _ := obj.(*types.TypeName)
		if tn == nil {
			return nil
		}
		recv, name = tn, method
	}
	obj, _, _ := types.LookupFieldOrMethod(types.NewPointer(recv.Type()), true, p.Pkg, name)
	fn, _ := obj.(*types.Func)
	return fn
}

// contractFor returns the pool contract governing a handle type (*T for
// an annotated T), or nil.
func (a *annotations) contractFor(t types.Type) *poolContract {
	ptr, ok := t.(*types.Pointer)
	if !ok {
		return nil
	}
	n, ok := ptr.Elem().(*types.Named)
	if !ok {
		return nil
	}
	return a.poolByType[n.Obj()]
}

// invalidatorOf returns the contract a function invalidates handles of,
// or nil. A function can invalidate at most one contract (enforced by
// construction: contracts are per-type and methods resolve uniquely).
func (a *annotations) invalidatorOf(fn *types.Func) *poolContract {
	if fn == nil {
		return nil
	}
	for _, c := range a.pools {
		if c.invalidators[fn] {
			return c
		}
	}
	return nil
}

// reportProblems emits the package's malformed-annotation findings
// under the directive pseudo-check.
func (a *annotations) reportProblems(m *Module, p *Package, findings []Finding) []Finding {
	for _, pr := range a.problems[p] {
		posn := m.Fset.Position(pr.pos)
		findings = append(findings, Finding{
			File: relFile(m.Root, posn.Filename), Line: posn.Line, Col: posn.Column,
			Check: directiveCheck, Msg: pr.msg,
		})
	}
	return findings
}
