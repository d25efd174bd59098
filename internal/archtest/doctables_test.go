package archtest

import (
	"cmp"
	"flag"
	"fmt"
	"go/ast"
	"go/token"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"testing"
)

var update = flag.Bool("update", false, "rewrite DESIGN.md's generated tables from their sources")

// docTables are the tables DESIGN.md shares with the code. Each is
// rendered from the rows of the test that holds the code to it, into
// the region between <!-- generated: name --> and <!-- end: name -->,
// so the document cannot say what the test does not assert.
var docTables = []struct {
	name, file, test string
	columns          []string
	render           func(r fields) []string
}{
	{"warm-alloc-budgets", L + "request_test.go", "TestHandleWarmAllocBudget",
		[]string{"row", "backend", "allocations per warm `g.handle`, at most"},
		func(r fields) []string {
			backend := "in-process"
			if x, ok := r.row["cfg"].(*ast.CallExpr); ok && callee(x) == "socket" {
				backend = "socket"
			}
			return []string{r.value("name"), backend, r.value("budget")}
		}},
	{"request-exits", L + "request_test.go", "TestEveryExitCountsOnce",
		[]string{"exit", "backends", "outcome", "the client reads", "headers owed", "span: status, event", "`resilience` keys moved"},
		func(r fields) []string {
			reply := "nothing"
			if wire := r.value("wire"); wire != "" {
				reply = wire
				if body := r.value("body"); body != "" {
					reply += " `" + body + "`…"
				}
				if r.value("truncated") == "true" {
					reply += ", cut short"
				}
			}
			span := r.value("spanStatus")
			if event := r.value("event"); event != "" {
				span += ", `" + event + "`"
			}
			if r.value("spanErr") == "true" {
				span += ", `Err` set"
			}
			return []string{r.value("name"), cmp.Or(r.value("only"), "both"), "`" + r.value("outcome") + "`", reply,
				r.pairs("header", func(k, v string) string {
					if v == "*" {
						return "`" + k + "`"
					}
					return "`" + k + ": " + v + "`"
				}),
				span,
				r.pairs("res", func(k, v string) string { return "`" + k + "` +" + v })}
		}},
	{"boot-phases", L + "lifecycle_test.go", "TestBootPhaseTable",
		[]string{"boot", "function's image", "from", "`bootInfo.mode`", "sleeps, in order"},
		func(r fields) []string {
			from := "nothing"
			if x, ok := r.row["from"].(*ast.CallExpr); ok {
				if from = "a generic watchdog"; callee(x) == "lent" {
					from = "an idle instance of `" + r.valueOf(x.Args[0]) + "`"
				}
			}
			want := r.sub("want")
			var rest []string
			for _, phase := range []struct{ field, name string }{{"pull", "pull"}, {"runtime", "runtime init"}, {"app", "app init"}} {
				if d := want.value(phase.field); d != "" {
					rest = append(rest, phase.name+" "+d)
				}
			}
			sleeps := strings.Join(rest, " + ")
			if wipe := want.value("wipe"); wipe != "" {
				sleeps = "wipe " + wipe + "; " + sleeps
			}
			image := "none"
			if img := r.valueOf(r.row["fn"].(*ast.CallExpr).Args[0]); img != "" {
				image = "`" + img + "`"
			}
			return []string{r.value("name"), image, from, "`" + want.value("mode") + "`", sleeps}
		}},
}

// fields is one row of a test's table: its struct's field names to
// the expressions the row gives them, read in the package of c.
type fields struct {
	c   *at
	row map[string]ast.Expr
}

// value is the row's field as text: a literal's value, a constant's or
// a variable's by its declaration, "" for a field the row leaves out.
func (r fields) value(name string) string {
	if e := r.row[name]; e != nil {
		return r.valueOf(e)
	}
	return ""
}

func (r fields) valueOf(e ast.Expr) string {
	switch e := e.(type) {
	case *ast.BasicLit:
		if s, err := strconv.Unquote(e.Value); err == nil {
			return s
		}
		return e.Value
	case *ast.Ident:
		if v := r.c.declared(e.Name); v != nil {
			return r.valueOf(v)
		}
	case *ast.BinaryExpr:
		if e.Op == token.ADD {
			return r.valueOf(e.X) + r.valueOf(e.Y)
		}
		if e.Op == token.MUL && text(e.Y) == "ms" { // a duration in the test's ms unit
			return r.valueOf(e.X) + " ms"
		}
	case *ast.CallExpr: // errors.New("...") and its .Error()
		if s, ok := e.Fun.(*ast.SelectorExpr); ok && s.Sel.Name == "Error" && len(e.Args) == 0 {
			return r.valueOf(s.X)
		}
		if isSel(r.c, e.Fun, "errors", "New") {
			return r.valueOf(e.Args[0])
		}
	}
	return text(e)
}

// sub is the row's field that is itself a keyed composite literal.
func (r fields) sub(name string) fields {
	sub := fields{c: r.c, row: map[string]ast.Expr{}}
	if lit, ok := r.row[name].(*ast.CompositeLit); ok {
		for _, e := range lit.Elts {
			kv := e.(*ast.KeyValueExpr)
			sub.row[text(kv.Key)] = kv.Value
		}
	}
	return sub
}

// pairs renders the row's map literal field, one say(key, value) per
// entry in the row's order, or "–" when the row has none.
func (r fields) pairs(name string, say func(k, v string) string) string {
	lit, ok := r.row[name].(*ast.CompositeLit)
	if !ok || len(lit.Elts) == 0 {
		return "–"
	}
	var out []string
	for _, e := range lit.Elts {
		kv := e.(*ast.KeyValueExpr)
		out = append(out, say(r.valueOf(kv.Key), r.valueOf(kv.Value)))
	}
	return strings.Join(out, ", ")
}

// declared is the value a package-level const or var of c's package
// is declared with, or nil.
func (c *at) declared(name string) ast.Expr {
	for _, f := range c.t.files {
		if f.dir != c.f.dir {
			continue
		}
		for _, d := range f.ast.Decls {
			if g, ok := d.(*ast.GenDecl); ok && (g.Tok == token.CONST || g.Tok == token.VAR) {
				for _, s := range g.Specs {
					s := s.(*ast.ValueSpec)
					for i, id := range s.Names {
						if id.Name == name && i < len(s.Values) {
							return s.Values[i]
						}
					}
				}
			}
		}
	}
	return nil
}

// tableRows reads the rows of test's table: the first slice literal of
// an anonymous struct in the function.
func (t *tree) tableRows(path, test string) (rows []fields, err error) {
	t.walk(row{in: []string{path}, tests: true}, func(c *at) {
		lit, ok := c.n.(*ast.CompositeLit)
		if !ok || c.fn != test || rows != nil {
			return
		}
		slice, ok := lit.Type.(*ast.ArrayType)
		if !ok {
			return
		}
		st, ok := slice.Elt.(*ast.StructType)
		if !ok {
			return
		}
		var names []string
		for _, fl := range st.Fields.List {
			for _, id := range fl.Names {
				names = append(names, id.Name)
			}
		}
		for _, e := range lit.Elts {
			r := fields{c: &at{f: c.f, t: c.t}, row: map[string]ast.Expr{}}
			for i, v := range e.(*ast.CompositeLit).Elts {
				if kv, ok := v.(*ast.KeyValueExpr); ok {
					r.row[text(kv.Key)] = kv.Value
				} else {
					r.row[names[i]] = v
				}
			}
			rows = append(rows, r)
		}
	})
	if rows == nil {
		err = fmt.Errorf("%s: %s has no table", path, test)
	}
	return rows, err
}

// regenerate holds the region name of the document at path to body, or
// with -update rewrites it.
func regenerate(t *testing.T, path, name, body string) {
	t.Helper()
	b, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	begin, end := "<!-- generated: "+name+" -->\n", "<!-- end: "+name+" -->"
	head, rest, ok := strings.Cut(string(b), begin)
	old, tail, ok2 := strings.Cut(rest, end)
	switch {
	case !ok || !ok2:
		t.Errorf("%s has no %q region", path, name)
	case old == body:
	case *update:
		if err := os.WriteFile(path, []byte(head+begin+body+end+tail), 0o644); err != nil {
			t.Fatal(err)
		}
	default:
		var lacks []string
		for _, l := range strings.SplitAfter(body, "\n") {
			if !strings.Contains(old, l) {
				lacks = append(lacks, l)
			}
		}
		t.Errorf("%s's %q table is not what its source renders (go test -run TestDocTables -update rewrites it); it lacks:\n%s",
			filepath.Base(path), name, strings.Join(lacks, ""))
	}
}

// markdown renders a table: a header row, a rule and one row per cell
// slice, with any | in a cell escaped.
func markdown(columns []string, rows [][]string) string {
	var b strings.Builder
	line := func(cells []string) {
		for _, c := range cells {
			b.WriteString("| " + strings.ReplaceAll(c, "|", `\|`) + " ")
		}
		b.WriteString("|\n")
	}
	line(columns)
	b.WriteString(strings.Repeat("|---", len(columns)) + "|\n")
	for _, r := range rows {
		line(r)
	}
	return b.String()
}

// Each table DESIGN.md shares with the code is what its test's rows
// render.
func TestDocTables(t *testing.T) {
	tr, err := load("../..")
	if err != nil {
		t.Fatal(err)
	}
	for _, d := range docTables {
		rows, err := tr.tableRows(d.file, d.test)
		if err != nil {
			t.Error(err)
			continue
		}
		var cells [][]string
		for _, r := range rows {
			cells = append(cells, d.render(r))
		}
		regenerate(t, "../../DESIGN.md", d.name, markdown(d.columns, cells))
	}
}
