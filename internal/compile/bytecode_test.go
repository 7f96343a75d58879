package compile

import (
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"parulel/internal/lang"
	"parulel/internal/wm"
)

// vmEnv is a deterministic Env for backend-agreement tests: every lookup
// is a pure function of the reference, so the interpreter and the VM see
// identical worlds without constructing instantiations.
type vmEnv struct{}

var vmPalette = []wm.Value{
	wm.Int(0), wm.Int(7), wm.Int(-3), wm.Int(2),
	wm.Float(2), wm.Float(0.5), wm.Float(0), wm.Float(-1.25),
	wm.Sym("false"), wm.Sym("true"), wm.Sym("x"),
	wm.Str(""), wm.Str("ab"), {},
}

func paletteAt(i int) wm.Value {
	if i < 0 {
		i = -i
	}
	return vmPalette[i%len(vmPalette)]
}

func (vmEnv) Ref(r VarRef) wm.Value               { return paletteAt(r.CE*7 + r.Field) }
func (vmEnv) Local(i int) wm.Value                { return paletteAt(i + 3) }
func (vmEnv) MetaVal(pat int, r VarRef) wm.Value  { return paletteAt(pat*5 + r.CE + r.Field) }
func (vmEnv) MetaTag(pat int) int64               { return int64(pat*10 + 3) }
func (vmEnv) MetaRuleName(pat int) string         { return fmt.Sprintf("rule%d", pat) }
func (vmEnv) MetaPrecedes(pat int, pat2 int) bool { return pat < pat2 }

// agree evaluates e through both backends and requires identical values
// and identical error text.
func agree(t *testing.T, e *Expr) (wm.Value, error) {
	t.Helper()
	cd := lowerExpr(e)
	if cd == nil {
		if e.Kind != ECall {
			// Leaf roots are not lowered by policy; force them through
			// the lowerer so VM leaf instructions stay covered.
			l := &lowerer{}
			if !l.lower(e, 0) {
				t.Fatalf("lowerer failed on leaf %+v", e)
			}
			l.emit(opRet, 0, 0, 0)
			cd = &code{ins: l.ins, consts: l.consts, refs: l.refs, nregs: l.nregs}
		} else {
			t.Fatalf("lowerExpr returned nil for %+v", e)
		}
	}
	wantV, wantErr := interpret(e, vmEnv{})
	gotV, gotErr := cd.run(vmEnv{})
	if (wantErr == nil) != (gotErr == nil) {
		t.Fatalf("error divergence: interp err=%v, vm err=%v", wantErr, gotErr)
	}
	if wantErr != nil {
		if wantErr.Error() != gotErr.Error() {
			t.Fatalf("error text divergence: interp %q, vm %q", wantErr, gotErr)
		}
		return wm.Value{}, wantErr
	}
	if wantV != gotV {
		t.Fatalf("value divergence: interp %s (%+v), vm %s (%+v)", wantV, wantV, gotV, gotV)
	}
	return wantV, nil
}

func TestBytecodeAgreesWithInterp(t *testing.T) {
	i, f, s := wm.Int, wm.Float, wm.Sym
	cases := []struct {
		name string
		e    *Expr
	}{
		{"const", c(i(42))},
		{"ref", &Expr{Kind: ERef, Ref: VarRef{CE: 1, Field: 2}}},
		{"local", &Expr{Kind: ELocal, Local: 4}},
		{"add-int", call(BAdd, c(i(1)), c(i(2)), c(i(3)))},
		{"add-mixed", call(BAdd, c(i(1)), c(f(0.5)))},
		// The all-operand int/float decision: a trailing float makes the
		// WHOLE fold float, so (div 7 2 2.0) = 1.75, not 1.5.
		{"div-mixed-window", call(BDiv, c(i(7)), c(i(2)), c(f(2)))},
		{"div-int", call(BDiv, c(i(7)), c(i(2)))},
		{"div-zero-int", call(BDiv, c(i(7)), c(i(0)))},
		{"div-zero-float", call(BDiv, c(f(7)), c(f(0)))},
		{"mod-int", call(BMod, c(i(7)), c(i(3)))},
		{"mod-zero", call(BMod, c(i(7)), c(i(0)))},
		{"mod-float", call(BMod, c(f(7)), c(i(3)))},
		{"unary-minus-int", call(BSub, c(i(5)))},
		{"unary-minus-float", call(BSub, c(f(1.5)))},
		{"sub-chain", call(BSub, c(i(10)), c(i(3)), c(i(2)))},
		{"min-max", call(BMin, call(BMax, c(i(3)), c(f(9))), c(i(5)))},
		{"arith-nonnumeric", call(BAdd, c(i(1)), c(s("x")))},
		{"arith-nonnumeric-order", call(BAdd, c(s("a")), c(s("b")))},
		{"eq-numeric", call(BEq, c(i(2)), c(f(2)))},
		{"ne", call(BNe, c(s("a")), c(s("b")))},
		{"lt", call(BLt, c(i(1)), c(i(2)))},
		{"le-cross-kind", call(BLe, c(s("a")), c(i(1)))},
		{"gt", call(BGt, c(f(2.5)), c(i(2)))},
		{"ge", call(BGe, c(i(2)), c(i(2)))},
		{"not", call(BNot, c(s("false")))},
		{"not-nil", call(BNot, c(wm.Value{}))},
		{"and-true", call(BAnd, c(i(1)), c(s("true")))},
		{"and-shortcircuit-skips-error", call(BAnd, c(s("false")), call(BDiv, c(i(1)), c(i(0))))},
		{"and-error-propagates", call(BAnd, c(i(1)), call(BDiv, c(i(1)), c(i(0))))},
		{"or-shortcircuit-skips-error", call(BOr, c(i(1)), call(BDiv, c(i(1)), c(i(0))))},
		{"or-false", call(BOr, c(s("false")), c(wm.Value{}))},
		{"if-then", call(BIf, c(i(1)), c(s("yes")), call(BDiv, c(i(1)), c(i(0))))},
		{"if-else", call(BIf, c(s("false")), call(BDiv, c(i(1)), c(i(0))), c(s("no")))},
		{"if-cond-error", call(BIf, call(BDiv, c(i(1)), c(i(0))), c(i(1)), c(i(2)))},
		{"abs-int", call(BAbs, c(i(-3)))},
		{"abs-float", call(BAbs, c(f(-2.5)))},
		{"abs-nonnumeric", call(BAbs, c(s("x")))},
		{"hash-int", call(BHash, c(i(12345)))},
		{"hash-float", call(BHash, c(f(2)))},
		{"hash-sym", call(BHash, c(s("pool")))},
		{"symcat", call(BSymcat, c(s("a")), c(i(3)), c(f(2)))},
		{"symcat-empty", call(BSymcat, c(wm.Str("")))},
		{"crlf", call(BSymcat, c(s("a")), call(BCrlf))},
		{"tabto", call(BSymcat, c(s("a")), call(BTabto))},
		{"meta-ref", &Expr{Kind: EMetaRef, Pat: 1, MetaVar: VarRef{CE: 0, Field: 2}}},
		{"meta-tag", &Expr{Kind: EMetaTag, Pat: 2}},
		{"meta-rule", &Expr{Kind: EMetaRule, Pat: 1}},
		{"meta-prec", &Expr{Kind: EMetaPrec, Pat: 0, Pat2: 1}},
		{"nested", call(BIf,
			call(BAnd, call(BLt, &Expr{Kind: ERef, Ref: VarRef{CE: 0, Field: 1}}, c(i(100))), call(BNot, c(s("false")))),
			call(BAdd, call(BMul, c(i(3)), c(i(4))), call(BMod, call(BHash, c(s("k"))), c(i(8)))),
			c(i(0)))},
	}
	for _, tc := range cases {
		tc := tc
		t.Run(tc.name, func(t *testing.T) { agree(t, tc.e) })
	}
}

// bumpSource is a small program whose roots cover filters, bind, modify,
// write and a meta-rule test.
const bumpSource = `
(literalize item id score flag)
(rule bump
  <x> <- (item ^id <i> ^score <s> ^flag on)
  (test (< <s> 10))
-->
  (bind <n> (+ <s> 1))
  (modify <x> ^score <n>)
  (write "bumped " <i> (crlf)))
(metarule prefer-older
  [<a> (bump ^i <i1>)]
  [<b> (bump ^i <i2>)]
  (test (precedes <b> <a>))
-->
  (redact <a>))
`

// loweringSources returns every embedded program (read from the
// programs package's source directory, which this package cannot
// import) plus bumpSource, keyed by name.
func loweringSources(t *testing.T) map[string]string {
	t.Helper()
	files, err := filepath.Glob("../programs/src/*.par")
	if err != nil || len(files) == 0 {
		t.Fatalf("no embedded programs found: %v", err)
	}
	srcs := map[string]string{"bump": bumpSource}
	for _, f := range files {
		b, err := os.ReadFile(f)
		if err != nil {
			t.Fatal(err)
		}
		srcs[strings.TrimSuffix(filepath.Base(f), ".par")] = string(b)
	}
	return srcs
}

// forEachRoot calls fn on every root expression of prog — the filters,
// action expressions and meta tests that lowerProgram visits.
func forEachRoot(prog *Program, fn func(where string, x *Expr)) {
	for _, r := range prog.Rules {
		for _, ce := range r.CEs {
			for _, f := range ce.Filters {
				fn("rule "+r.Name+" filter", f)
			}
		}
		for _, a := range r.Actions {
			for j := range a.Slots {
				fn("rule "+r.Name+" slot", a.Slots[j].Expr)
			}
			for _, x := range a.Exprs {
				fn("rule "+r.Name+" action", x)
			}
		}
	}
	for _, m := range prog.MetaRules {
		for _, x := range m.Tests {
			fn("metarule "+m.Name+" test", x)
		}
	}
}

// TestCompileAttachesBytecode verifies, over every embedded program, that
// Compile lowers every call-rooted expression, so a run never silently
// interprets compiler output. Leaf roots (plain refs, constants)
// deliberately stay on the tree walker, which is already optimal for a
// single node.
func TestCompileAttachesBytecode(t *testing.T) {
	for name, src := range loweringSources(t) {
		prog, err := CompileSource(src)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		calls := 0
		forEachRoot(prog, func(where string, x *Expr) {
			if x.Kind == ECall {
				calls++
				if x.code == nil {
					t.Errorf("%s: %s: call expr not lowered", name, where)
				}
			} else if x.code != nil {
				t.Errorf("%s: %s: leaf expr unexpectedly lowered", name, where)
			}
		})
		if calls == 0 {
			t.Errorf("%s: no call expressions found", name)
		}
	}
}

// TestCompileReferenceCarriesNoBytecode verifies, over every embedded
// program, that CompileReference leaves every root on the tree walker,
// so the reference half of a differential test never runs the VM.
func TestCompileReferenceCarriesNoBytecode(t *testing.T) {
	for name, src := range loweringSources(t) {
		ast, err := lang.Parse(src)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		prog, err := CompileReference(ast)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		roots := 0
		forEachRoot(prog, func(where string, x *Expr) {
			roots++
			if x.code != nil {
				t.Errorf("%s: %s: reference expr carries bytecode", name, where)
			}
		})
		if roots == 0 {
			t.Errorf("%s: no root expressions found", name)
		}
	}
}

func TestEvalFallsBackWithoutCode(t *testing.T) {
	e := call(BAdd, c(wm.Int(2)), c(wm.Int(3))) // hand-built: no code attached
	v, err := Eval(e, vmEnv{})
	if err != nil || v != wm.Int(5) {
		t.Fatalf("fallback eval = %v, %v; want 5", v, err)
	}
}

func BenchmarkEvalExpr(b *testing.B) {
	// The E13-shaped microbenchmark: a filter-like expression with refs,
	// comparison, arithmetic and a short-circuit — the common hot shape.
	e := call(BAnd,
		call(BLt, &Expr{Kind: ERef, Ref: VarRef{CE: 0, Field: 1}}, c(wm.Int(100))),
		call(BEq, call(BMod, call(BAdd, &Expr{Kind: ERef, Ref: VarRef{CE: 0, Field: 3}}, c(wm.Int(13))), c(wm.Int(7))), c(wm.Int(1))),
	)
	code := lowerExpr(e)
	if code == nil {
		b.Fatal("lowering failed")
	}
	b.Run("interp", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if _, err := interpret(e, vmEnv{}); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("bytecode", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if _, err := code.run(vmEnv{}); err != nil {
				b.Fatal(err)
			}
		}
	})
}
