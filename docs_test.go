package sihtm_test

import (
	"go/ast"
	"go/parser"
	"go/token"
	"io/fs"
	"os"
	"path"
	"path/filepath"
	"regexp"
	"runtime"
	"strconv"
	"strings"
	"testing"
)

// goPackage is what a doc may name in one package: its top-level
// identifiers, and for each type its methods and fields.
type goPackage struct {
	idents  map[string]bool
	members map[string]map[string]bool // type → method and field names
}

func newGoPackage() *goPackage {
	return &goPackage{idents: map[string]bool{}, members: map[string]map[string]bool{}}
}

func (p *goPackage) has(name, member string) bool {
	if member == "" {
		return p.idents[name]
	}
	return p.members[name][member]
}

// goTree is what the docs are checked against.
type goTree struct {
	pkgs  map[string]*goPackage // by directory name and by package name
	std   map[string]*goPackage // by the last element of the import path
	types map[string][]*goPackage
	words map[string]bool // every word of the module's Go sources
}

var (
	word = regexp.MustCompile(`\b[A-Za-z_]\w*`)
	// The forms a span may take, each optionally followed by a call's
	// or a literal's brackets: pkg.Name, pkg.Type.Member,
	// (*pkg.Type).Method, Type.Member, (*Type).method, Name.
	qualified    = regexp.MustCompile(`^([a-z][a-z0-9]*)\.([A-Z]\w*)(?:\.(\w+))?(?:[({\[].*)?$`)
	qualifiedPtr = regexp.MustCompile(`^\(\*([a-z][a-z0-9]*)\.([A-Z]\w*)\)\.(\w+)(?:\(.*)?$`)
	member       = regexp.MustCompile(`^([A-Z]\w*)\.(\w+)(?:\(.*)?$`)
	memberPtr    = regexp.MustCompile(`^\(\*([A-Z]\w*)\)\.(\w+)(?:\(.*)?$`)
	bare         = regexp.MustCompile(`^([A-Z]\w*[a-z]\w*)(?:\(.*)?$`)
	// internal/a/b, internal/a/b.go (with an optional :line), and
	// internal/a/b.Name(.Member).
	internalPath = regexp.MustCompile(`^internal(?:/[\w-]+)+(?:\.go(?::\d+)?|/|/\.\.\.)?$`)
	internalRef  = regexp.MustCompile(`^(internal(?:/[\w-]+)+)\.([A-Z]\w*)(?:\.(\w+))?(?:[({\[].*)?$`)
	codeSpan     = regexp.MustCompile("`([^`\n]+)`")
	// A repro command line: the command, then everything after it.
	reproLine = regexp.MustCompile(`\brepro +([a-z]+)\b(.*)`)
	// The FlagSet methods that define a flag and take its name first.
	flagDefiner = regexp.MustCompile(`^(Bool|Duration|Float64|Int|Int64|String|Uint|Uint64|Func|BoolFunc)$`)
)

// loadTree parses every Go file under the module root, indexing each
// package under its directory name and its package name (a test file's
// "x_test" counts as x), and reads the standard library's API files
// (GOROOT/api) for the names a doc may use from it.
func loadTree(t *testing.T) *goTree {
	t.Helper()
	tr := &goTree{pkgs: map[string]*goPackage{}, std: map[string]*goPackage{}, types: map[string][]*goPackage{}, words: map[string]bool{}}
	pkg := func(m map[string]*goPackage, name string) *goPackage {
		if m[name] == nil {
			m[name] = newGoPackage()
		}
		return m[name]
	}
	fset := token.NewFileSet()
	err := filepath.WalkDir(".", func(file string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() && file != "." && (d.Name() == "testdata" || strings.HasPrefix(d.Name(), ".")) {
			return filepath.SkipDir
		}
		if d.IsDir() || !strings.HasSuffix(file, ".go") {
			return nil
		}
		src, err := os.ReadFile(file)
		if err != nil {
			return err
		}
		for _, w := range word.FindAllString(string(src), -1) {
			tr.words[w] = true
		}
		f, err := parser.ParseFile(fset, file, src, parser.SkipObjectResolution)
		if err != nil {
			return err
		}
		name := strings.TrimSuffix(f.Name.Name, "_test")
		indexFile(pkg(tr.pkgs, name), f)
		if dir := filepath.Base(filepath.Dir(file)); dir != "." && dir != name {
			indexFile(pkg(tr.pkgs, dir), f)
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	for _, p := range tr.pkgs {
		for typ := range p.members {
			if p.idents[typ] {
				tr.types[typ] = append(tr.types[typ], p)
			}
		}
	}

	api, _ := filepath.Glob(filepath.Join(runtime.GOROOT(), "api", "go1*.txt"))
	if len(api) == 0 {
		t.Skip("no GOROOT/api files to tell the standard library's names from the module's")
	}
	for _, file := range api {
		body, err := os.ReadFile(file)
		if err != nil {
			t.Fatal(err)
		}
		// Lines read "pkg sync, method (*WaitGroup) Add(int)".
		for _, line := range strings.Split(string(body), "\n") {
			imp, decl, ok := strings.Cut(strings.TrimPrefix(line, "pkg "), ", ")
			if !ok {
				continue
			}
			p := pkg(tr.std, path.Base(strings.Fields(imp)[0]))
			for _, w := range word.FindAllString(decl, -1) {
				p.idents[w] = true
			}
		}
	}
	return tr
}

// indexFile adds a file's declarations to p.
func indexFile(p *goPackage, f *ast.File) {
	member := func(typ, name string) {
		if p.members[typ] == nil {
			p.members[typ] = map[string]bool{}
		}
		p.members[typ][name] = true
	}
	for _, d := range f.Decls {
		switch d := d.(type) {
		case *ast.FuncDecl:
			if d.Recv == nil || len(d.Recv.List) == 0 {
				p.idents[d.Name.Name] = true
				continue
			}
			typ := d.Recv.List[0].Type
			if s, ok := typ.(*ast.StarExpr); ok {
				typ = s.X
			}
			if ix, ok := typ.(*ast.IndexExpr); ok { // a generic receiver
				typ = ix.X
			}
			if id, ok := typ.(*ast.Ident); ok {
				member(id.Name, d.Name.Name)
			}
		case *ast.GenDecl:
			for _, s := range d.Specs {
				switch s := s.(type) {
				case *ast.TypeSpec:
					p.idents[s.Name.Name] = true
					var fields *ast.FieldList
					switch tt := s.Type.(type) {
					case *ast.StructType:
						fields = tt.Fields
					case *ast.InterfaceType:
						fields = tt.Methods
					}
					if fields != nil {
						for _, fl := range fields.List {
							for _, n := range fl.Names {
								member(s.Name.Name, n.Name)
							}
						}
					}
				case *ast.ValueSpec:
					for _, n := range s.Names {
						p.idents[n.Name] = true
					}
				}
			}
		}
	}
}

// resolve reports whether a code span names something in the tree;
// judged is false for a span this check has no opinion on.
func (tr *goTree) resolve(span string) (found, judged bool) {
	span = strings.TrimLeft(span, "[]*&")
	inPackage := func(pkg, name, member string) (bool, bool) {
		p := tr.pkgs[pkg]
		if p == nil { // the standard library's, or a variable in a fragment
			return false, false
		}
		std := tr.std[pkg]
		return p.has(name, member) || std != nil && std.idents[name], true
	}
	onType := func(typ, member string) (bool, bool) {
		for _, p := range tr.types[typ] {
			if p.members[typ][member] {
				return true, true
			}
		}
		return false, len(tr.types[typ]) > 0
	}
	if r := internalRef.FindStringSubmatch(span); r != nil {
		if _, err := os.Stat(r[1]); err != nil {
			return false, true
		}
		p := tr.pkgs[path.Base(r[1])]
		return p != nil && p.has(r[2], r[3]), true
	}
	if internalPath.MatchString(span) {
		_, err := os.Stat(strings.SplitN(strings.TrimSuffix(span, "/..."), ":", 2)[0])
		return err == nil, true
	}
	if r := qualifiedPtr.FindStringSubmatch(span); r != nil {
		return inPackage(r[1], r[2], r[3])
	}
	if r := qualified.FindStringSubmatch(span); r != nil {
		return inPackage(r[1], r[2], r[3])
	}
	if r := memberPtr.FindStringSubmatch(span); r != nil {
		return onType(r[1], r[2])
	}
	if r := member.FindStringSubmatch(span); r != nil {
		return onType(r[1], r[2])
	}
	if r := bare.FindStringSubmatch(span); r != nil {
		for _, p := range tr.std {
			if p.idents[r[1]] {
				return true, true
			}
		}
		return tr.words[r[1]], true
	}
	return false, false
}

// reproFlags reads cmd/repro's sources for the flags each command
// defines: in a function that calls newFlags("cmd"), the name of every
// flag-defining call (fs.String("name", …) and the like). Every command
// also takes -h and -help.
func reproFlags(t *testing.T) map[string]map[string]bool {
	t.Helper()
	files, err := filepath.Glob("cmd/repro/*.go")
	if err != nil {
		t.Fatal(err)
	}
	flags := map[string]map[string]bool{}
	fset := token.NewFileSet()
	for _, file := range files {
		if strings.HasSuffix(file, "_test.go") {
			continue
		}
		f, err := parser.ParseFile(fset, file, nil, parser.SkipObjectResolution)
		if err != nil {
			t.Fatal(err)
		}
		for _, d := range f.Decls {
			fn, ok := d.(*ast.FuncDecl)
			if !ok || fn.Body == nil {
				continue
			}
			var cmd string
			names := []string{"h", "help"}
			ast.Inspect(fn.Body, func(n ast.Node) bool {
				call, ok := n.(*ast.CallExpr)
				if !ok || len(call.Args) == 0 {
					return true
				}
				lit, ok := call.Args[0].(*ast.BasicLit)
				if !ok || lit.Kind != token.STRING {
					return true
				}
				arg, _ := strconv.Unquote(lit.Value)
				switch fun := call.Fun.(type) {
				case *ast.Ident:
					if fun.Name == "newFlags" {
						cmd = arg
					}
				case *ast.SelectorExpr:
					if flagDefiner.MatchString(fun.Sel.Name) {
						names = append(names, arg)
					}
				}
				return true
			})
			if cmd == "" {
				continue
			}
			flags[cmd] = map[string]bool{}
			for _, name := range names {
				flags[cmd][name] = true
			}
		}
	}
	if len(flags) == 0 {
		t.Fatal("found no newFlags call in cmd/repro")
	}
	return flags
}

// unknownReproFlags returns each flag of a `repro CMD --flag` in text
// that CMD does not define. A command line ends at a shell operator or a
// comment.
func unknownReproFlags(flags map[string]map[string]bool, text string) []string {
	var bad []string
	for _, m := range reproLine.FindAllStringSubmatch(text, -1) {
		for _, tok := range strings.Fields(m[2]) {
			if strings.HasPrefix(tok, "#") || strings.ContainsAny(tok, "|&;") {
				break
			}
			if len(tok) < 2 || tok[0] != '-' {
				continue
			}
			name, _, _ := strings.Cut(strings.TrimLeft(tok, "-"), "=")
			if !flags[m[1]][name] {
				bad = append(bad, "repro "+m[1]+" "+tok)
			}
		}
	}
	return bad
}

// TestDocsResolve checks that every backticked Go name in README.md and
// docs/*.md that points into the tree names something that exists, so a
// change that deletes or renames code cannot leave a document describing
// it. It reads inline code spans, not fenced blocks, and judges:
//   - pkg.Name, pkg.Type.Member and (*pkg.Type).Method whose qualifier
//     is a package of the module (one of the standard library's, or a
//     variable in a fragment such as tx.Read(), is not judged);
//   - internal/… paths, and internal/pkg.Name;
//   - Type.Member and (*Type).method whose type the module declares;
//   - a bare CamelCase Name, which the standard library must declare or
//     the module's sources must use (a benchmark case, a step of the
//     paper's algorithms, a kernel field the code reads).
//
// It also checks every `repro CMD --flag` in an inline span or in a
// line of a fenced block (other than a go block, and joined with the
// lines its trailing backslashes continue it onto): cmd/repro's CMD
// must define the flag.
func TestDocsResolve(t *testing.T) {
	tr := loadTree(t)
	flags := reproFlags(t)
	docs, err := filepath.Glob("docs/*.md")
	if err != nil {
		t.Fatal(err)
	}
	for _, doc := range append(docs, "README.md") {
		body, err := os.ReadFile(doc)
		if err != nil {
			t.Fatal(err)
		}
		inFence, goFence := false, false
		lines := strings.Split(string(body), "\n")
		for i := 0; i < len(lines); i++ {
			line := lines[i]
			if fence, ok := strings.CutPrefix(strings.TrimSpace(line), "```"); ok {
				inFence, goFence = !inFence, fence == "go"
				continue
			}
			if inFence {
				if goFence {
					continue
				}
				n := i + 1
				for strings.HasSuffix(line, "\\") && i+1 < len(lines) {
					i++
					line = strings.TrimSuffix(line, "\\") + " " + lines[i]
				}
				for _, bad := range unknownReproFlags(flags, line) {
					t.Errorf("%s:%d: `%s` names a flag the command does not define", doc, n, bad)
				}
				continue
			}
			for _, m := range codeSpan.FindAllStringSubmatch(line, -1) {
				if found, judged := tr.resolve(m[1]); judged && !found {
					t.Errorf("%s:%d: `%s` is not in the tree", doc, i+1, m[1])
				}
				for _, bad := range unknownReproFlags(flags, m[1]) {
					t.Errorf("%s:%d: `%s` names a flag the command does not define", doc, i+1, bad)
				}
			}
		}
	}
}
