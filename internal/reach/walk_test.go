package reach

import (
	"fmt"
	"go/ast"
	"go/build"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"io/fs"
	"maps"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"sync"
)

// The one build context: every file of the module, and of the standard
// library under the source importer, is selected as for linux/amd64 with
// no tags, so a race build and an arm64 host read the same files.
var (
	stdOnce     sync.Once
	stdFset     *token.FileSet
	stdImporter types.Importer
)

func standardLibrary() (*token.FileSet, types.Importer) {
	stdOnce.Do(func() {
		build.Default.GOOS, build.Default.GOARCH = "linux", "amd64"
		build.Default.CgoEnabled = false
		build.Default.BuildTags = nil
		stdFset = token.NewFileSet()
		stdImporter = importer.ForCompiler(stdFset, "source", nil)
	})
	return stdFset, stdImporter
}

// A module is one Go module's non-test packages, parsed and type-checked.
type module struct {
	root, path string
	fset       *token.FileSet
	std        types.Importer
	pkgs       map[string]*pkg // by import path; nil while being checked
}

type pkg struct {
	rel   string // directory below the module root, "." for the root
	files []*ast.File
	types *types.Package
	info  *types.Info
}

func loadModule(root string) (*module, error) {
	data, err := os.ReadFile(filepath.Join(root, "go.mod"))
	if err != nil {
		return nil, err
	}
	m := &module{root: root, pkgs: map[string]*pkg{}}
	for _, line := range strings.Split(string(data), "\n") {
		if f := strings.Fields(line); len(f) == 2 && f[0] == "module" {
			m.path = f[1]
		}
	}
	if m.path == "" {
		return nil, fmt.Errorf("%s/go.mod: no module line", root)
	}
	m.fset, m.std = standardLibrary()
	err = filepath.WalkDir(root, func(p string, d fs.DirEntry, err error) error {
		if err != nil || !d.IsDir() {
			return err
		}
		if p != root {
			name := d.Name()
			if name == "testdata" || strings.HasPrefix(name, ".") || strings.HasPrefix(name, "_") {
				return filepath.SkipDir
			}
			if _, err := os.Stat(filepath.Join(p, "go.mod")); err == nil {
				return filepath.SkipDir
			}
		}
		names, err := goFiles(p)
		if err != nil || len(names) == 0 {
			return err
		}
		rel, _ := filepath.Rel(root, p)
		_, err = m.load(m.importPath(filepath.ToSlash(rel)))
		return err
	})
	return m, err
}

// goFiles lists a directory's non-test Go files that the build context
// selects.
func goFiles(dir string) ([]string, error) {
	ents, err := os.ReadDir(dir)
	if err != nil {
		return nil, err
	}
	var names []string
	for _, e := range ents {
		n := e.Name()
		if e.IsDir() || !strings.HasSuffix(n, ".go") || strings.HasSuffix(n, "_test.go") {
			continue
		}
		if ok, err := build.Default.MatchFile(dir, n); err != nil {
			return nil, err
		} else if ok {
			names = append(names, n)
		}
	}
	return names, nil
}

func (m *module) importPath(rel string) string {
	if rel == "." {
		return m.path
	}
	return m.path + "/" + rel
}

func (m *module) inModule(path string) bool {
	return path == m.path || strings.HasPrefix(path, m.path+"/")
}

// Import loads module packages itself and hands the rest to the standard
// library's source importer.
func (m *module) Import(path string) (*types.Package, error) {
	if !m.inModule(path) {
		return m.std.Import(path)
	}
	p, err := m.load(path)
	if err != nil {
		return nil, err
	}
	return p.types, nil
}

func (m *module) load(path string) (*pkg, error) {
	if p, ok := m.pkgs[path]; ok {
		if p == nil {
			return nil, fmt.Errorf("import cycle through %s", path)
		}
		return p, nil
	}
	m.pkgs[path] = nil
	p := &pkg{rel: "."}
	if path != m.path {
		p.rel = strings.TrimPrefix(path, m.path+"/")
	}
	dir := filepath.Join(m.root, filepath.FromSlash(p.rel))
	names, err := goFiles(dir)
	if err != nil {
		return nil, err
	}
	for _, n := range names {
		f, err := parser.ParseFile(m.fset, filepath.Join(dir, n), nil, parser.SkipObjectResolution)
		if err != nil {
			return nil, err
		}
		p.files = append(p.files, f)
	}
	p.info = &types.Info{
		Defs:      map[*ast.Ident]types.Object{},
		Uses:      map[*ast.Ident]types.Object{},
		Instances: map[*ast.Ident]types.Instance{},
	}
	conf := types.Config{Importer: m}
	if p.types, err = conf.Check(path, m.fset, p.files, p.info); err != nil {
		return nil, err
	}
	m.pkgs[path] = p
	return p, nil
}

// sorted returns the module's packages in import-path order.
func (m *module) sorted() []*pkg {
	paths := make([]string, 0, len(m.pkgs))
	for path := range m.pkgs {
		paths = append(paths, path)
	}
	sort.Strings(paths)
	out := make([]*pkg, len(paths))
	for i, path := range paths {
		out[i] = m.pkgs[path]
	}
	return out
}

// A walk is one reachability pass over a module. A func is live when a
// live body (or a root) uses it, as a call or as a value; a generic one
// counts as its origin. An interface method is live when live code calls
// it, and a method of a type that live code names is live when the type
// implements a live interface method's interface. The standard library's
// own calls are not walked: every method of an exported interface of a
// linked standard package counts as called, and so do the errors
// package's Unwrap, Is and As.
type walk struct {
	m      *module
	decls  map[*types.Func]decl
	live   map[*types.Func]bool
	queue  []*types.Func
	inited map[*pkg]bool

	seenType     map[*types.Named]bool
	typesByName  map[string][]*types.Named // live concrete types by method name
	called       map[*types.Func]bool      // live interface methods
	calledByName map[string][]*types.Func
}

type decl struct {
	fn  *ast.FuncDecl
	pkg *pkg
}

func newWalk(m *module) *walk {
	w := &walk{
		m:            m,
		decls:        map[*types.Func]decl{},
		live:         map[*types.Func]bool{},
		inited:       map[*pkg]bool{},
		seenType:     map[*types.Named]bool{},
		typesByName:  map[string][]*types.Named{},
		called:       map[*types.Func]bool{},
		calledByName: map[string][]*types.Func{},
	}
	seen := map[*types.Package]bool{}
	var linked func(*types.Package)
	linked = func(tp *types.Package) {
		if seen[tp] {
			return
		}
		seen[tp] = true
		if !m.inModule(tp.Path()) {
			for _, name := range tp.Scope().Names() {
				if tn, ok := tp.Scope().Lookup(name).(*types.TypeName); ok && tn.Exported() && !tn.IsAlias() {
					w.callAll(tn.Type())
				}
			}
		}
		for _, imp := range tp.Imports() {
			linked(imp)
		}
	}
	for _, p := range m.sorted() {
		linked(p.types)
		for _, f := range p.files {
			for _, d := range f.Decls {
				if fd, ok := d.(*ast.FuncDecl); ok {
					if fn, ok := p.info.Defs[fd.Name].(*types.Func); ok {
						w.decls[fn] = decl{fd, p}
					}
				}
			}
		}
	}
	w.callAll(types.Universe.Lookup("error").Type())
	proto := errorsProtocol()
	for _, name := range proto.Scope().Names() {
		w.callAll(proto.Scope().Lookup(name).Type())
	}
	return w
}

// errorsProtocol declares the unnamed interfaces through which errors.Is
// and errors.As call an error's own methods.
func errorsProtocol() *types.Package {
	const src = `package p

type (
	unwrap      interface{ Unwrap() error }
	unwrapSlice interface{ Unwrap() []error }
	is          interface{ Is(error) bool }
	as          interface{ As(any) bool }
)`
	fset := token.NewFileSet()
	f, err := parser.ParseFile(fset, "errors.go", src, 0)
	if err != nil {
		panic(err)
	}
	p, err := new(types.Config).Check("p", fset, []*ast.File{f}, nil)
	if err != nil {
		panic(err)
	}
	return p
}

// callAll counts every method of an interface type as called.
func (w *walk) callAll(t types.Type) {
	iface, ok := t.Underlying().(*types.Interface)
	if !ok {
		return
	}
	for i := 0; i < iface.NumMethods(); i++ {
		w.call(iface.Method(i))
	}
}

func (w *walk) use(obj types.Object) {
	switch o := obj.(type) {
	case *types.Func:
		o = o.Origin()
		if recv := o.Type().(*types.Signature).Recv(); recv != nil && types.IsInterface(recv.Type()) {
			w.call(o)
			return
		}
		if _, ok := w.decls[o]; ok && !w.live[o] {
			w.live[o] = true
			w.queue = append(w.queue, o)
		}
	case *types.TypeName:
		w.addType(o.Type())
	}
}

func (w *walk) call(m *types.Func) {
	if w.called[m] {
		return
	}
	w.called[m] = true
	w.calledByName[m.Name()] = append(w.calledByName[m.Name()], m)
	for _, t := range w.typesByName[m.Name()] {
		w.dispatch(t, m)
	}
}

// addType marks a type live, with every named type its values hold.
func (w *walk) addType(t types.Type) {
	switch t := t.(type) {
	case *types.Alias:
		w.addType(types.Unalias(t))
	case *types.Named:
		if w.seenType[t] || (t.TypeParams().Len() > 0 && t.TypeArgs().Len() == 0) {
			return
		}
		w.seenType[t] = true
		if !types.IsInterface(t) {
			ms := types.NewMethodSet(types.NewPointer(t))
			for i := 0; i < ms.Len(); i++ {
				name := ms.At(i).Obj().Name()
				w.typesByName[name] = append(w.typesByName[name], t)
				for _, m := range w.calledByName[name] {
					w.dispatch(t, m)
				}
			}
		}
		w.addType(t.Underlying())
	case *types.Pointer:
		w.addType(t.Elem())
	case *types.Slice:
		w.addType(t.Elem())
	case *types.Array:
		w.addType(t.Elem())
	case *types.Chan:
		w.addType(t.Elem())
	case *types.Map:
		w.addType(t.Key())
		w.addType(t.Elem())
	case *types.Struct:
		for i := 0; i < t.NumFields(); i++ {
			w.addType(t.Field(i).Type())
		}
	}
}

// dispatch marks t's method m live when t implements m's interface.
func (w *walk) dispatch(t *types.Named, m *types.Func) {
	iface, ok := m.Type().(*types.Signature).Recv().Type().Underlying().(*types.Interface)
	if !ok || !(types.Implements(t, iface) || types.Implements(types.NewPointer(t), iface)) {
		return
	}
	if obj, _, _ := types.LookupFieldOrMethod(t, true, m.Pkg(), m.Name()); obj != nil {
		w.use(obj)
	}
}

// inspect uses every object an AST names.
func (w *walk) inspect(n ast.Node, info *types.Info) {
	ast.Inspect(n, func(n ast.Node) bool {
		if id, ok := n.(*ast.Ident); ok {
			if inst, ok := info.Instances[id]; ok {
				w.addType(inst.Type)
			}
			if obj := info.Uses[id]; obj != nil {
				w.use(obj)
			}
		}
		return true
	})
}

// initialize walks the package-level var initializers and init funcs of p
// and of every module package it imports.
func (w *walk) initialize(p *pkg) {
	if w.inited[p] {
		return
	}
	w.inited[p] = true
	for _, imp := range p.types.Imports() {
		if w.m.inModule(imp.Path()) {
			w.initialize(w.m.pkgs[imp.Path()])
		}
	}
	for _, f := range p.files {
		for _, d := range f.Decls {
			switch d := d.(type) {
			case *ast.GenDecl:
				if d.Tok == token.VAR {
					w.inspect(d, p.info)
				}
			case *ast.FuncDecl:
				if d.Recv == nil && d.Name.Name == "init" {
					w.inspect(d, p.info)
				}
			}
		}
	}
}

// rootMain roots p's main func.
func (w *walk) rootMain(p *pkg) {
	w.use(p.types.Scope().Lookup("main"))
	w.initialize(p)
}

// rootAPI roots every exported identifier of p: its funcs, its types, and
// the exported methods declared on them. An alias re-exports a type, not
// its method set.
func (w *walk) rootAPI(p *pkg) {
	scope := p.types.Scope()
	for _, name := range scope.Names() {
		switch obj := scope.Lookup(name).(type) {
		case *types.Func:
			if obj.Exported() {
				w.use(obj)
			}
		case *types.TypeName:
			if !obj.Exported() {
				continue
			}
			w.use(obj)
			if n, ok := obj.Type().(*types.Named); ok && !obj.IsAlias() {
				for i := 0; i < n.NumMethods(); i++ {
					if n.Method(i).Exported() {
						w.use(n.Method(i))
					}
				}
			}
		}
	}
	w.initialize(p)
}

func (w *walk) run() {
	for len(w.queue) > 0 {
		f := w.queue[len(w.queue)-1]
		w.queue = w.queue[:len(w.queue)-1]
		d := w.decls[f]
		w.inspect(d.fn, d.pkg.info)
	}
}

// A row is one unreachable symbol.
type row struct {
	sym   string
	bench bool // benchmark/ reaches it
}

// A result is a module's reachability: the packages whose main is a root,
// below the module, and the unreachable rows.
type result struct {
	mains, benchMains []string
	rows              []row
}

// reachability walks m from its roots: main in every package main under
// cmd/ and examples/, and the root package's exports; then again with
// main in benchmark/ added. Symbols in benchmark/ are not reported.
func reachability(m *module) result {
	w := newWalk(m)
	var res result
	for _, p := range m.sorted() {
		if p.types.Name() == "main" && under(p.rel, "cmd", "examples") {
			res.mains = append(res.mains, p.rel)
			w.rootMain(p)
		}
	}
	if root := m.pkgs[m.path]; root != nil && root.types.Name() != "main" {
		w.rootAPI(root)
	}
	w.run()
	prod := maps.Clone(w.live)
	for _, p := range m.sorted() {
		if p.types.Name() == "main" && under(p.rel, "benchmark") {
			res.benchMains = append(res.benchMains, p.rel)
			w.rootMain(p)
		}
	}
	w.run()

	for f, d := range w.decls {
		if !prod[f] && !under(d.pkg.rel, "benchmark") && f.Name() != "init" && f.Name() != "_" {
			res.rows = append(res.rows, row{symbol(m, f), w.live[f]})
		}
	}
	sort.Slice(res.rows, func(i, j int) bool { return res.rows[i].sym < res.rows[j].sym })
	return res
}

// under reports whether rel is one of dirs or below one.
func under(rel string, dirs ...string) bool {
	for _, d := range dirs {
		if rel == d || strings.HasPrefix(rel, d+"/") {
			return true
		}
	}
	return false
}

// symbol names f as pkg.Name or pkg.Recv.Name, where pkg is its package's
// directory below the module with a leading internal/ dropped, or the
// module's own name for the root package.
func symbol(m *module, f *types.Func) string {
	pkg := strings.TrimPrefix(strings.TrimPrefix(f.Pkg().Path(), m.path), "/")
	pkg = strings.TrimPrefix(pkg, "internal/")
	if pkg == "" {
		pkg = f.Pkg().Name()
	}
	recv := f.Type().(*types.Signature).Recv()
	if recv == nil {
		return pkg + "." + f.Name()
	}
	t := recv.Type()
	if p, ok := t.(*types.Pointer); ok {
		t = p.Elem()
	}
	return pkg + "." + t.(*types.Named).Obj().Name() + "." + f.Name()
}
