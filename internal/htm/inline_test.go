package htm_test

import (
	"bufio"
	"bytes"
	"fmt"
	"go/ast"
	"go/parser"
	"go/token"
	"os/exec"
	"path/filepath"
	"strconv"
	"strings"
	"testing"
)

// accessInlines is the committed list of what each simulated access
// must inline: a load or store of a line no transaction owns, which is
// nearly all of them, tests the ownership word (snoop) and reaches the
// heap word in its own frame (directory.go, rule 3), so it pays no call.
// ReadOnlyOps.Read is what tm.Ops dispatches to on SI-HTM's read-only
// path, so that load costs the interface call and nothing more. A plain
// store or CAS also tests for the reader table in its own frame
// (mayTrack, rule 4), so it calls out only on a machine that tracks reads.
// A transactional access asks the directory whether the line is already
// its own — the ownership word for the write set (inWriteSet), the
// thread's reader bit for the read set (inReadSet) — in its own frame
// too. Tx.Read loads the ownership word once, in its body, and that one
// load is both its write-set test and its snoop.
var accessInlines = map[string][]string{
	"(*Thread).Load":           {"memsim.LineOf", "(*Machine).snoop", "memsim.(*Heap).Load", "memsim.(*Heap).slot"},
	"ReadOnlyOps.Read":         {"memsim.LineOf", "(*Machine).snoop", "memsim.(*Heap).Load", "memsim.(*Heap).slot"},
	"(*Tx).Read":               {"memsim.LineOf", "(*Tx).inReadSet", "memsim.(*Heap).Load", "memsim.(*Heap).slot"},
	"(*Tx).Write":              {"memsim.LineOf", "(*Tx).inWriteSet"},
	"(*Tx).claimWrite":         {"(*Tx).inReadSet"},
	"(*Thread).Store":          {"memsim.LineOf", "(*Machine).snoop", "memsim.(*Heap).Store", "memsim.(*Heap).slot", "(*Machine).mayTrack"},
	"(*Thread).CompareAndSwap": {"memsim.LineOf", "(*Machine).snoop", "memsim.(*Heap).CompareAndSwap", "memsim.(*Heap).slot", "(*Machine).mayTrack"},
}

// slowPath is the out-of-line call an owned line takes. Inlining it
// would copy its wait loop into every access site for a case that
// almost never runs.
const slowPath = "(*Machine).conflictRead"

// TestReadPathInlines builds htm and memsim with the compiler's
// inlining report (go build -gcflags=-m=2, which also states why a
// function is not inlined), checks accessInlines against it, and checks
// that conflictRead stays out of line.
func TestReadPathInlines(t *testing.T) {
	if testing.Short() {
		t.Skip("builds two packages with the go command")
	}
	gobin, err := exec.LookPath("go")
	if err != nil {
		t.Skip("no go command on PATH")
	}
	cmd := exec.Command(gobin, "build", "-gcflags=-m=2", "sihtm/internal/memsim", "sihtm/internal/htm")
	out, err := cmd.CombinedOutput()
	if err != nil {
		t.Fatalf("go build -gcflags=-m=2: %v\n%s", err, out)
	}

	funcs := funcRanges(t, "thread.go", "tx.go")
	inlined := map[string]map[string]bool{} // caller → callees inlined into it
	outOfLine := false
	sc := bufio.NewScanner(bytes.NewReader(out))
	for sc.Scan() {
		file, line, msg, ok := splitDiag(sc.Text())
		if !ok {
			continue
		}
		if callee, ok := strings.CutPrefix(msg, "inlining call to "); ok {
			if callee == slowPath {
				t.Errorf("%s:%d inlines %s, the slow path", file, line, slowPath)
			}
			if caller := funcs.at(file, line); caller != "" {
				if inlined[caller] == nil {
					inlined[caller] = map[string]bool{}
				}
				inlined[caller][callee] = true
			}
		}
		if strings.HasPrefix(msg, "cannot inline "+slowPath+":") {
			outOfLine = true
		}
	}
	for caller, callees := range accessInlines {
		if !funcs.has(caller) {
			t.Errorf("%s is not declared in thread.go or tx.go", caller)
			continue
		}
		for _, callee := range callees {
			if !inlined[caller][callee] {
				t.Errorf("%s does not inline %s", caller, callee)
			}
		}
	}
	if !outOfLine {
		t.Errorf("the compiler no longer reports %s as out of line", slowPath)
	}
}

// splitDiag splits a compiler diagnostic "dir/file.go:line:col: msg".
func splitDiag(s string) (file string, line int, msg string, ok bool) {
	parts := strings.SplitN(s, ":", 4)
	if len(parts) != 4 {
		return "", 0, "", false
	}
	line, err := strconv.Atoi(parts[1])
	if err != nil {
		return "", 0, "", false
	}
	return filepath.Base(parts[0]), line, strings.TrimSpace(parts[3]), true
}

type funcRange struct {
	name       string
	file       string
	start, end int
}

type funcTable []funcRange

// funcRanges lists the line span of every function declared in the
// package's files named.
func funcRanges(t *testing.T, files ...string) funcTable {
	t.Helper()
	var tab funcTable
	fset := token.NewFileSet()
	for _, name := range files {
		f, err := parser.ParseFile(fset, name, nil, 0)
		if err != nil {
			t.Fatal(err)
		}
		for _, d := range f.Decls {
			fd, ok := d.(*ast.FuncDecl)
			if !ok {
				continue
			}
			tab = append(tab, funcRange{
				name:  funcName(fd),
				file:  name,
				start: fset.Position(fd.Pos()).Line,
				end:   fset.Position(fd.End()).Line,
			})
		}
	}
	return tab
}

// funcName renders a declaration as the compiler's report does, e.g.
// "(*Thread).Load".
func funcName(fd *ast.FuncDecl) string {
	if fd.Recv == nil || len(fd.Recv.List) == 0 {
		return fd.Name.Name
	}
	switch r := fd.Recv.List[0].Type.(type) {
	case *ast.StarExpr:
		return fmt.Sprintf("(*%s).%s", r.X.(*ast.Ident).Name, fd.Name.Name)
	case *ast.Ident:
		return r.Name + "." + fd.Name.Name
	}
	return fd.Name.Name
}

// at names the function whose body holds file:line, or "".
func (tab funcTable) at(file string, line int) string {
	for _, f := range tab {
		if f.file == file && f.start <= line && line <= f.end {
			return f.name
		}
	}
	return ""
}

func (tab funcTable) has(name string) bool {
	for _, f := range tab {
		if f.name == name {
			return true
		}
	}
	return false
}
