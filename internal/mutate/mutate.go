// Package mutate implements fault injection for the mutation campaign:
// it applies classic mutation operators to parsed Pascal programs,
// producing deterministic first-order mutants (exactly one planted
// fault each) together with the ground-truth unit the fault lives in.
// The campaign runner (package campaign) executes every mutant through
// the full GADT pipeline and checks that algorithmic debugging
// localizes the bug back to that unit.
//
// Operators (the classic selective set, cf. Offutt's sufficient
// operators):
//
//	rel-flip          relational operator replacement (<, <=, =, ...)
//	arith-flip        arithmetic operator replacement (+, -, *, div, ...)
//	const-off-by-one  integer literal n -> n±1
//	var-swap          reference to a variable replaced by another
//	                  same-type variable of the same declaration group
//	negate-cond       if/while/repeat condition wrapped in `not`
//	drop-stmt         assignment or call statement deleted
//
// The subject is parsed and analyzed once. Every candidate mutant is
// an in-place edit of that program, validated by re-checking the body of
// the one routine it edits (sem.Info.CheckBody) and then undone;
// mutants that no longer type-check are discarded (stillborn), so the
// returned set contains only executable programs. A mutant keeps its
// edit, not a program: Mutant.Program builds its AST on demand.
// Enumeration order, mutant IDs and sampling are fully deterministic for
// a given (source, Config) pair.
package mutate

import (
	"fmt"
	"math/rand"
	"sort"

	"gadt/internal/obs"
	"gadt/internal/pascal/ast"
	"gadt/internal/pascal/parser"
	"gadt/internal/pascal/printer"
	"gadt/internal/pascal/sem"
	"gadt/internal/pascal/token"
)

// Op names a mutation operator.
type Op string

const (
	RelFlip       Op = "rel-flip"
	ArithFlip     Op = "arith-flip"
	ConstOffByOne Op = "const-off-by-one"
	VarSwap       Op = "var-swap"
	NegateCond    Op = "negate-cond"
	DropStmt      Op = "drop-stmt"
)

// AllOps lists every operator in canonical order.
func AllOps() []Op {
	return []Op{RelFlip, ArithFlip, ConstOffByOne, VarSwap, NegateCond, DropStmt}
}

// ParseOp recognizes an operator name.
func ParseOp(s string) (Op, bool) {
	for _, op := range AllOps() {
		if string(op) == s {
			return op, true
		}
	}
	return "", false
}

// Mutant is one validated first-order mutant.
type Mutant struct {
	// ID is the mutant's stable index in the full enumeration of its
	// subject (independent of sampling).
	ID int
	Op Op
	// Unit is the routine the fault was injected into (the program name
	// for faults in the main program body) — the localization ground
	// truth.
	Unit string
	// Pos is the source position of the mutated construct in the
	// original program.
	Pos token.Pos
	// Description is human-readable, e.g. `rel-flip < -> <= in isprime`.
	Description string
	// Source is the complete mutated program, as printed from Program().
	Source string
	// Equivalent marks mutants that static triage proved
	// behaviour-preserving (see TriageEquivalent); the campaign reports
	// them without executing them.
	Equivalent bool
	// EquivReason names the triage rule that fired, e.g. `site
	// unreachable on all inputs`.
	EquivReason string

	// orig points at the mutation site in the original program, the
	// handle triage uses to consult the value analysis; base is that
	// program, which is never edited once enumeration returns.
	orig *site
	base *ast.Program
}

// Program returns a fresh copy of the subject program with this
// mutant's edit applied. It prints as Source and has the statements
// parsing Source would give, but its source positions point into the
// subject's own source. The caller owns the copy. Safe for concurrent
// use.
func (m *Mutant) Program() *ast.Program {
	p, anchor := ast.CopyFind(m.base, m.orig.anchor)
	m.orig.apply(anchor)
	return p
}

// Config controls enumeration.
type Config struct {
	// Ops enables a subset of operators (nil/empty = all).
	Ops []Op
	// Seed drives sampling when Max truncates the enumeration.
	Seed int64
	// Max caps the number of returned mutants (0 = all). Sampling is a
	// deterministic seed-driven choice from the full enumeration, so a
	// larger Max returns a superset ordering of stable IDs.
	Max int
	// Metrics, when non-nil, receives enumeration counters: the labeled
	// mutate.sites{op=...} series, mutate.stillborn (faults that do not
	// type-check), and mutate.mutants (viable mutants returned).
	Metrics *obs.Registry
}

// relAlts / arithAlts map an operator token to its replacement
// candidates. Two alternatives per relational operator cover both the
// boundary (off-by-one in the comparison) and the polarity fault
// classes.
var relAlts = map[token.Kind][]token.Kind{
	token.Eq:      {token.NotEq, token.LessEq},
	token.NotEq:   {token.Eq, token.Less},
	token.Less:    {token.LessEq, token.GreatEq},
	token.LessEq:  {token.Less, token.Greater},
	token.Greater: {token.GreatEq, token.LessEq},
	token.GreatEq: {token.Greater, token.Less},
}

var arithAlts = map[token.Kind][]token.Kind{
	token.Plus:  {token.Minus, token.Star},
	token.Minus: {token.Plus},
	token.Star:  {token.Plus},
	token.Div:   {token.Mod, token.Star},
	token.Mod:   {token.Div},
	token.Slash: {token.Star},
}

// site is one latent mutation. apply edits anchor, a node of the
// original program or its copy in a copy of the program, and returns
// the undo that restores it. Every edit is a single field write, so
// undo writes the old value back. owner is the routine whose body holds
// the site (nil for the program body).
type site struct {
	op     Op
	unit   string
	owner  *ast.Routine
	pos    token.Pos
	desc   string
	anchor ast.Node
	apply  func(anchor ast.Node) (undo func())

	// Triage metadata. node is the original-program construct the
	// mutation edits (nil opts the site out of static triage); altOp and
	// altName record the replacement for flip and swap operators.
	node    ast.Node
	altOp   token.Kind
	altName string
}

// Enumeration couples the parsed original program with its validated
// mutants, so whole-program analyses of the original can classify them
// (see TriageEquivalent).
type Enumeration struct {
	Prog    *ast.Program
	Info    *sem.Info
	Mutants []*Mutant
}

// Enumerate parses source and returns every enabled, type-correct
// mutant (sampled down to cfg.Max when set).
func Enumerate(file, source string, cfg Config) ([]*Mutant, error) {
	en, err := EnumerateProgram(file, source, cfg)
	if err != nil {
		return nil, err
	}
	return en.Mutants, nil
}

// EnumerateProgram is Enumerate keeping the original program and its
// semantic info alongside the mutants.
func EnumerateProgram(file, source string, cfg Config) (*Enumeration, error) {
	prog, err := parser.ParseProgram(file, source)
	if err != nil {
		return nil, fmt.Errorf("mutate: %w", err)
	}
	info, err := sem.Analyze(prog)
	if err != nil {
		return nil, fmt.Errorf("mutate: %w", err)
	}

	sites := collectSites(prog, cfg.Ops)
	siteVec := cfg.Metrics.CounterVec("mutate.sites", "op")
	for _, st := range sites {
		siteVec.With(string(st.op)).Inc()
	}

	// Every site edits the original program in place: apply, check the
	// edited routine's body, print, undo.
	var mutants []*Mutant
	for i, st := range sites {
		undo := st.apply(st.anchor)
		err := info.CheckBody(ownerOf(info, st))
		var source string
		if err == nil {
			source = printer.Print(prog)
		}
		undo()
		if err != nil {
			cfg.Metrics.Counter("mutate.stillborn").Inc()
			continue // stillborn: the fault does not type-check
		}
		mutants = append(mutants, &Mutant{
			ID:          i,
			Op:          st.op,
			Unit:        st.unit,
			Pos:         st.pos,
			Description: st.desc,
			Source:      source,
			orig:        st,
			base:        prog,
		})
	}

	if cfg.Max > 0 && len(mutants) > cfg.Max {
		rng := rand.New(rand.NewSource(cfg.Seed))
		rng.Shuffle(len(mutants), func(i, j int) {
			mutants[i], mutants[j] = mutants[j], mutants[i]
		})
		mutants = mutants[:cfg.Max]
		sort.Slice(mutants, func(i, j int) bool { return mutants[i].ID < mutants[j].ID })
	}
	cfg.Metrics.Counter("mutate.mutants").Add(int64(len(mutants)))
	return &Enumeration{Prog: prog, Info: info, Mutants: mutants}, nil
}

// collectSites returns every site of the enabled operators (nil or
// empty = all) in enumeration order.
func collectSites(prog *ast.Program, ops []Op) []*site {
	enabled := make(map[Op]bool)
	if len(ops) == 0 {
		ops = AllOps()
	}
	for _, op := range ops {
		enabled[op] = true
	}
	var sites []*site
	collectBlock(prog.Block, prog.Name, nil, enabled, &sites)
	return sites
}

// ownerOf returns the routine symbol whose body holds st.
func ownerOf(info *sem.Info, st *site) *sem.Routine {
	if st.owner == nil {
		return info.Main
	}
	return info.RoutineOf[st.owner]
}

// collectBlock gathers mutation sites for the block's own body
// (attributed to unit) and recurses into nested routines. owner is the
// routine the block belongs to (nil for the program block); its
// parameter groups join the block's variable groups for var-swap.
func collectBlock(b *ast.Block, unit string, owner *ast.Routine, enabled map[Op]bool, sites *[]*site) {
	for _, r := range b.Routines {
		collectBlock(r.Block, r.Name, r, enabled, sites)
	}
	groups := varGroups(b)
	if owner != nil {
		paramGroups(owner, groups)
	}
	collectBody(b.Body, unit, owner, groups, enabled, sites)
}

// varGroups returns, for each variable name declared in this block
// (params of the owning routine are declared in the enclosing Routine,
// so they are collected by the caller via the block's routine), the
// other names of its declaration group. Names sharing one VarDecl or
// one Param entry have identical declared types, making swaps
// type-safe by construction.
func varGroups(b *ast.Block) map[string][]string {
	groups := make(map[string][]string)
	add := func(names []string) {
		if len(names) < 2 {
			return
		}
		for _, n := range names {
			var others []string
			for _, m := range names {
				if m != n {
					others = append(others, m)
				}
			}
			groups[n] = others
		}
	}
	for _, d := range b.Vars {
		add(d.Names)
	}
	return groups
}

// paramGroups extends varGroups with the routine's parameter groups.
func paramGroups(r *ast.Routine, groups map[string][]string) {
	for _, p := range r.Params {
		if len(p.Names) < 2 {
			continue
		}
		for _, n := range p.Names {
			var others []string
			for _, m := range p.Names {
				if m != n {
					others = append(others, m)
				}
			}
			groups[n] = others
		}
	}
}

func collectBody(body ast.Stmt, unit string, owner *ast.Routine, groups map[string][]string, enabled map[Op]bool, sites *[]*site) {
	// Statement-level sites: dropped statements and negated conditions.
	first := len(*sites)
	ast.Inspect(body, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.CompoundStmt:
			collectDrops(n, n.Stmts, unit, enabled, sites)
		case *ast.RepeatStmt:
			collectDrops(n, n.Stmts, unit, enabled, sites)
			collectNegate(n, n.Cond, "until", unit, enabled, sites)
		case *ast.IfStmt:
			collectNegate(n, n.Cond, "if", unit, enabled, sites)
		case *ast.WhileStmt:
			collectNegate(n, n.Cond, "while", unit, enabled, sites)
		case *ast.BinaryExpr:
			collectOpFlip(n, unit, enabled, sites)
		case *ast.IntLit:
			collectOffByOne(n, unit, enabled, sites)
		case *ast.Ident:
			collectSwap(n, unit, groups, enabled, sites)
		}
		return true
	})
	for _, st := range (*sites)[first:] {
		st.owner = owner
	}
}

func collectDrops(parent ast.Node, stmts []ast.Stmt, unit string, enabled map[Op]bool, sites *[]*site) {
	if !enabled[DropStmt] {
		return
	}
	for i, s := range stmts {
		switch s.(type) {
		case *ast.AssignStmt, *ast.CallStmt:
		default:
			continue
		}
		i, s := i, s
		*sites = append(*sites, &site{
			op:     DropStmt,
			unit:   unit,
			pos:    s.Pos(),
			desc:   fmt.Sprintf("drop-stmt `%s` in %s", firstLine(printer.PrintStmt(s)), unit),
			node:   s,
			anchor: parent,
			apply: func(anchor ast.Node) func() {
				// Delete the statement, as the parser drops an empty one.
				var list *[]ast.Stmt
				switch p := anchor.(type) {
				case *ast.CompoundStmt:
					list = &p.Stmts
				case *ast.RepeatStmt:
					list = &p.Stmts
				}
				old := *list
				*list = append(append(make([]ast.Stmt, 0, len(old)-1), old[:i]...), old[i+1:]...)
				return func() { *list = old }
			},
		})
	}
}

func collectNegate(stmt ast.Node, cond ast.Expr, kw, unit string, enabled map[Op]bool, sites *[]*site) {
	if !enabled[NegateCond] || cond == nil {
		return
	}
	*sites = append(*sites, &site{
		op:     NegateCond,
		unit:   unit,
		pos:    cond.Pos(),
		desc:   fmt.Sprintf("negate-cond %s `%s` in %s", kw, firstLine(printer.PrintExpr(cond)), unit),
		node:   cond,
		anchor: stmt,
		apply: func(anchor ast.Node) func() {
			var e *ast.Expr
			switch s := anchor.(type) {
			case *ast.IfStmt:
				e = &s.Cond
			case *ast.WhileStmt:
				e = &s.Cond
			case *ast.RepeatStmt:
				e = &s.Cond
			}
			old := *e
			*e = &ast.UnaryExpr{OpPos: old.Pos(), Op: token.Not, X: old}
			return func() { *e = old }
		},
	})
}

func collectOpFlip(e *ast.BinaryExpr, unit string, enabled map[Op]bool, sites *[]*site) {
	alts, op := relAlts[e.Op], RelFlip
	if len(alts) == 0 {
		alts, op = arithAlts[e.Op], ArithFlip
	}
	if len(alts) == 0 || !enabled[op] {
		return
	}
	for _, alt := range alts {
		alt := alt
		*sites = append(*sites, &site{
			op:     op,
			unit:   unit,
			pos:    e.Pos(),
			desc:   fmt.Sprintf("%s %s -> %s in %s", op, e.Op, alt, unit),
			node:   e,
			anchor: e,
			altOp:  alt,
			apply: func(anchor ast.Node) func() {
				b := anchor.(*ast.BinaryExpr)
				old := b.Op
				b.Op = alt
				return func() { b.Op = old }
			},
		})
	}
}

func collectOffByOne(e *ast.IntLit, unit string, enabled map[Op]bool, sites *[]*site) {
	if !enabled[ConstOffByOne] {
		return
	}
	for _, delta := range []int64{1, -1} {
		delta := delta
		*sites = append(*sites, &site{
			op:     ConstOffByOne,
			unit:   unit,
			pos:    e.Pos(),
			desc:   fmt.Sprintf("const-off-by-one %d -> %d in %s", e.Value, e.Value+delta, unit),
			node:   e,
			anchor: e,
			apply: func(anchor ast.Node) func() {
				l := anchor.(*ast.IntLit)
				old := l.Value
				l.Value += delta
				return func() { l.Value = old }
			},
		})
	}
}

func collectSwap(id *ast.Ident, unit string, groups map[string][]string, enabled map[Op]bool, sites *[]*site) {
	if !enabled[VarSwap] {
		return
	}
	others := groups[id.Name]
	if len(others) == 0 {
		return
	}
	// One alternative per occurrence keeps the site count linear: the
	// lexicographically smallest other member of the declaration group.
	alt := others[0]
	for _, o := range others[1:] {
		if o < alt {
			alt = o
		}
	}
	*sites = append(*sites, &site{
		op:      VarSwap,
		unit:    unit,
		pos:     id.Pos(),
		desc:    fmt.Sprintf("var-swap %s -> %s in %s", id.Name, alt, unit),
		node:    id,
		anchor:  id,
		altName: alt,
		apply: func(anchor ast.Node) func() {
			n := anchor.(*ast.Ident)
			old := n.Name
			n.Name = alt
			return func() { n.Name = old }
		},
	})
}

func firstLine(s string) string {
	for i := 0; i < len(s); i++ {
		if s[i] == '\n' {
			return s[:i] + " ..."
		}
	}
	return s
}
