package analysis

// Intraprocedural control-flow graphs over go/ast, plus a small forward
// dataflow fixpoint helper. Until this file, every asvlint rule was
// AST-shaped — fine for "this call is missing", blind to "this call is
// missing *on one path*". The lockbalance/wgbalance analyzers need path
// sensitivity, so they run as dataflow problems over these CFGs.
//
// The builder is deliberately statement-granular and syntax-only (no
// go/types): blocks hold the ast.Nodes that execute in them, in order, and
// edges follow Go's control constructs — if/else, for/range (with break,
// continue, labels), switch/type-switch (with fallthrough), select, goto,
// return, and explicit panic calls. Composite statements contribute only
// their non-body parts to a block (an IfStmt contributes Init and Cond); the
// one exception is RangeStmt, which appears whole in its head block so
// analyzers can see channel-range receives — transfer functions must not
// recurse into a RangeStmt's Body.
//
// Defer needs no special edges: a DeferStmt is an ordinary node in the block
// where it executes, and analyzers model "runs at every subsequent exit"
// themselves (conditionally registered defers then fall out of the dataflow
// for free).

import (
	"fmt"
	"go/ast"
	"strings"
)

// Block is one basic block: a maximal run of nodes with single-entry,
// single-exit control flow between them.
type Block struct {
	Index int
	// Kind names the construct that created the block ("entry", "for.body",
	// "if.then", "label.retry", ...); tests and Dump key off it.
	Kind  string
	Nodes []ast.Node
	Succs []*Block
	Preds []*Block
	// Panics marks a block terminated by an explicit panic(...) call; its
	// edge to Exit is a panic path, not a return path. Analyzers that only
	// care about normal returns skip these predecessors of Exit.
	Panics bool
}

// CFG is the control-flow graph of one function body. Entry holds the body's
// leading statements; every return, panic and end-of-body edge leads to the
// synthetic empty Exit block.
type CFG struct {
	Entry  *Block
	Exit   *Block
	Blocks []*Block // in creation order; Dump and tests rely on it
}

// BuildCFG constructs the CFG of one function body.
func BuildCFG(body *ast.BlockStmt) *CFG {
	b := &cfgBuilder{cfg: &CFG{}}
	b.cfg.Entry = b.newBlock("entry")
	b.cfg.Exit = &Block{Kind: "exit"}
	b.cur = b.cfg.Entry
	b.stmtList(body.List)
	if b.cur != nil {
		b.edge(b.cur, b.cfg.Exit)
	}
	b.cfg.Exit.Index = len(b.cfg.Blocks)
	b.cfg.Blocks = append(b.cfg.Blocks, b.cfg.Exit)
	return b.cfg
}

// Dump renders the graph one block per line as "b<i> <kind> -> b<j> b<k>",
// in creation order; the CFG tests pin these strings.
func (c *CFG) Dump() string {
	var sb strings.Builder
	for _, blk := range c.Blocks {
		fmt.Fprintf(&sb, "b%d %s", blk.Index, blk.Kind)
		if blk.Panics {
			sb.WriteString(" panics")
		}
		if len(blk.Succs) > 0 {
			sb.WriteString(" ->")
			for _, s := range blk.Succs {
				fmt.Fprintf(&sb, " b%d", s.Index)
			}
		}
		sb.WriteString("\n")
	}
	return sb.String()
}

// breakable tracks the targets break/continue jump to; switches and selects
// push entries with a nil continue target.
type breakable struct {
	label       string
	breakTarget *Block
	contTarget  *Block // nil for switch/select
}

type cfgBuilder struct {
	cfg *CFG
	// cur is the block under construction; nil after a terminator until the
	// next statement opens a fresh (possibly unreachable) block.
	cur *Block
	// pendingLabel is set while building the statement a label names, so
	// loops and switches can register their break/continue targets under it.
	pendingLabel string
	stack        []breakable
	labels       map[string]*Block
	// fallTarget is the next case's body while building a switch case, the
	// target of an explicit fallthrough.
	fallTarget *Block
}

func (b *cfgBuilder) newBlock(kind string) *Block {
	blk := &Block{Index: len(b.cfg.Blocks), Kind: kind}
	b.cfg.Blocks = append(b.cfg.Blocks, blk)
	return blk
}

func (b *cfgBuilder) edge(from, to *Block) {
	from.Succs = append(from.Succs, to)
	to.Preds = append(to.Preds, from)
}

// use appends a node to the current block, opening an unreachable block if
// control cannot reach here (code after return/break/...).
func (b *cfgBuilder) use(n ast.Node) {
	if n == nil {
		return
	}
	b.ensure()
	b.cur.Nodes = append(b.cur.Nodes, n)
}

func (b *cfgBuilder) ensure() {
	if b.cur == nil {
		b.cur = b.newBlock("unreachable")
	}
}

// startBlock opens kind as a new successor of the current block and makes it
// current.
func (b *cfgBuilder) startBlock(kind string) *Block {
	blk := b.newBlock(kind)
	if b.cur != nil {
		b.edge(b.cur, blk)
	}
	b.cur = blk
	return blk
}

func (b *cfgBuilder) labelBlock(name string) *Block {
	if b.labels == nil {
		b.labels = map[string]*Block{}
	}
	if blk, ok := b.labels[name]; ok {
		return blk
	}
	blk := b.newBlock("label." + name)
	b.labels[name] = blk
	return blk
}

func (b *cfgBuilder) stmtList(list []ast.Stmt) {
	for _, s := range list {
		b.stmt(s)
	}
}

// takeLabel consumes the pending label for the construct that claims it.
func (b *cfgBuilder) takeLabel() string {
	l := b.pendingLabel
	b.pendingLabel = ""
	return l
}

// findBreak returns the break target for an optional label.
func (b *cfgBuilder) findBreak(label string) *Block {
	for i := len(b.stack) - 1; i >= 0; i-- {
		if label == "" || b.stack[i].label == label {
			return b.stack[i].breakTarget
		}
	}
	return nil
}

// findContinue returns the continue target (innermost loop, or the labeled
// one).
func (b *cfgBuilder) findContinue(label string) *Block {
	for i := len(b.stack) - 1; i >= 0; i-- {
		if b.stack[i].contTarget == nil {
			continue // switch/select: continue passes through
		}
		if label == "" || b.stack[i].label == label {
			return b.stack[i].contTarget
		}
	}
	return nil
}

func (b *cfgBuilder) stmt(s ast.Stmt) {
	switch s := s.(type) {
	case *ast.BlockStmt:
		b.stmtList(s.List)

	case *ast.LabeledStmt:
		lb := b.labelBlock(s.Label.Name)
		if b.cur != nil {
			b.edge(b.cur, lb)
		}
		b.cur = lb
		b.pendingLabel = s.Label.Name
		b.stmt(s.Stmt)
		b.pendingLabel = ""

	case *ast.ReturnStmt:
		b.use(s)
		b.edge(b.cur, b.cfg.Exit)
		b.cur = nil

	case *ast.BranchStmt:
		b.branch(s)

	case *ast.IfStmt:
		b.ifStmt(s)

	case *ast.ForStmt:
		b.forStmt(s)

	case *ast.RangeStmt:
		b.rangeStmt(s)

	case *ast.SwitchStmt:
		b.switchStmt(s.Init, s.Tag, nil, s.Body, "switch")

	case *ast.TypeSwitchStmt:
		b.switchStmt(s.Init, nil, s.Assign, s.Body, "typeswitch")

	case *ast.SelectStmt:
		b.selectStmt(s)

	case *ast.ExprStmt:
		b.use(s)
		if isPanicCall(s.X) {
			b.cur.Panics = true
			b.edge(b.cur, b.cfg.Exit)
			b.cur = nil
		}

	default:
		// Assignments, declarations, sends, increments, defers, go
		// statements: straight-line nodes.
		b.use(s)
	}
}

func (b *cfgBuilder) branch(s *ast.BranchStmt) {
	b.ensure()
	label := ""
	if s.Label != nil {
		label = s.Label.Name
	}
	switch s.Tok.String() {
	case "break":
		if t := b.findBreak(label); t != nil {
			b.edge(b.cur, t)
		}
		b.cur = nil
	case "continue":
		if t := b.findContinue(label); t != nil {
			b.edge(b.cur, t)
		}
		b.cur = nil
	case "goto":
		b.edge(b.cur, b.labelBlock(label))
		b.cur = nil
	case "fallthrough":
		if b.fallTarget != nil {
			b.edge(b.cur, b.fallTarget)
		}
		b.cur = nil
	}
}

func (b *cfgBuilder) ifStmt(s *ast.IfStmt) {
	b.use(s.Init)
	b.use(s.Cond)
	b.ensure()
	head := b.cur

	then := b.newBlock("if.then")
	b.edge(head, then)
	done := b.newBlock("if.done")

	b.cur = then
	b.stmtList(s.Body.List)
	if b.cur != nil {
		b.edge(b.cur, done)
	}

	if s.Else != nil {
		els := b.newBlock("if.else")
		b.edge(head, els)
		b.cur = els
		b.stmt(s.Else)
		if b.cur != nil {
			b.edge(b.cur, done)
		}
	} else {
		b.edge(head, done)
	}
	b.cur = done
}

func (b *cfgBuilder) forStmt(s *ast.ForStmt) {
	label := b.takeLabel()
	b.use(s.Init)
	head := b.startBlock("for.head")
	b.use(s.Cond)
	body := b.newBlock("for.body")
	b.edge(head, body)
	done := b.newBlock("for.done")
	if s.Cond != nil {
		b.edge(head, done)
	}

	cont := head
	var post *Block
	if s.Post != nil {
		post = b.newBlock("for.post")
		post.Nodes = append(post.Nodes, s.Post)
		b.edge(post, head)
		cont = post
	}

	b.stack = append(b.stack, breakable{label: label, breakTarget: done, contTarget: cont})
	b.cur = body
	b.stmtList(s.Body.List)
	if b.cur != nil {
		b.edge(b.cur, cont)
	}
	b.stack = b.stack[:len(b.stack)-1]
	b.cur = done
}

func (b *cfgBuilder) rangeStmt(s *ast.RangeStmt) {
	label := b.takeLabel()
	// The whole RangeStmt sits in the head so analyzers can see a
	// channel-range receive; they must not recurse into s.Body.
	head := b.startBlock("range.head")
	head.Nodes = append(head.Nodes, s)
	body := b.newBlock("range.body")
	b.edge(head, body)
	done := b.newBlock("range.done")
	b.edge(head, done)

	b.stack = append(b.stack, breakable{label: label, breakTarget: done, contTarget: head})
	b.cur = body
	b.stmtList(s.Body.List)
	if b.cur != nil {
		b.edge(b.cur, head)
	}
	b.stack = b.stack[:len(b.stack)-1]
	b.cur = done
}

func (b *cfgBuilder) switchStmt(init ast.Stmt, tag ast.Expr, assign ast.Stmt, body *ast.BlockStmt, kind string) {
	label := b.takeLabel()
	b.use(init)
	b.use(tag)
	b.use(assign)
	b.ensure()
	head := b.cur
	done := b.newBlock(kind + ".done")

	// Pre-create the case body blocks so fallthrough can target the next one.
	var caseBlocks []*Block
	var clauses []*ast.CaseClause
	hasDefault := false
	for _, cs := range body.List {
		cc := cs.(*ast.CaseClause)
		clauses = append(clauses, cc)
		k := kind + ".case"
		if cc.List == nil {
			k = kind + ".default"
			hasDefault = true
		}
		cb := b.newBlock(k)
		b.edge(head, cb)
		caseBlocks = append(caseBlocks, cb)
	}
	if !hasDefault {
		b.edge(head, done)
	}

	b.stack = append(b.stack, breakable{label: label, breakTarget: done})
	savedFall := b.fallTarget
	for i, cc := range clauses {
		b.fallTarget = nil
		if i+1 < len(caseBlocks) {
			b.fallTarget = caseBlocks[i+1]
		}
		b.cur = caseBlocks[i]
		for _, e := range cc.List {
			b.use(e)
		}
		b.stmtList(cc.Body)
		if b.cur != nil {
			b.edge(b.cur, done)
		}
	}
	b.fallTarget = savedFall
	b.stack = b.stack[:len(b.stack)-1]
	b.cur = done
}

func (b *cfgBuilder) selectStmt(s *ast.SelectStmt) {
	label := b.takeLabel()
	b.ensure()
	head := b.cur
	done := b.newBlock("select.done")

	b.stack = append(b.stack, breakable{label: label, breakTarget: done})
	for _, cs := range s.Body.List {
		cc := cs.(*ast.CommClause)
		k := "select.case"
		if cc.Comm == nil {
			k = "select.default"
		}
		cb := b.newBlock(k)
		b.edge(head, cb)
		b.cur = cb
		b.use(cc.Comm)
		b.stmtList(cc.Body)
		if b.cur != nil {
			b.edge(b.cur, done)
		}
	}
	// A select with no cases blocks forever: done is then only reachable via
	// labeled breaks from elsewhere, i.e. usually not at all.
	b.stack = b.stack[:len(b.stack)-1]
	b.cur = done
}

// isPanicCall reports whether e is a call to the predeclared panic. Purely
// syntactic (the builder has no type info); shadowing panic would fool it,
// which no reasonable code does.
func isPanicCall(e ast.Expr) bool {
	call, ok := ast.Unparen(e).(*ast.CallExpr)
	if !ok {
		return false
	}
	id, ok := ast.Unparen(call.Fun).(*ast.Ident)
	return ok && id.Name == "panic"
}

// ForwardDataflow runs a forward dataflow analysis over c to a fixpoint and
// returns every reachable block's in- and out-state. join merges src into
// dst — dst is the zero S the first time a block is reached — and reports
// whether dst changed; transfer computes a block's out-state from its
// in-state and must return a fresh value (it may start from a copy of in).
// Blocks unreachable from Entry get no state; callers treat absence as
// "never executes". The lattice must be finite-height (join eventually
// stops reporting change) — a visit cap guards against non-monotone
// transfer functions.
func ForwardDataflow[S any](
	c *CFG,
	entry S,
	join func(dst, src S) (S, bool),
	transfer func(b *Block, in S) S,
) (in, out map[*Block]S) {
	in = map[*Block]S{c.Entry: entry}
	out = map[*Block]S{}
	seen := map[*Block]bool{c.Entry: true}
	work := []*Block{c.Entry}
	visits := 0
	maxVisits := 64 * (len(c.Blocks) + 1)
	for len(work) > 0 && visits < maxVisits {
		visits++
		blk := work[0]
		work = work[1:]
		seen[blk] = false
		o := transfer(blk, in[blk])
		out[blk] = o
		for _, succ := range blk.Succs {
			merged, changed := join(in[succ], o)
			first := false
			if _, ok := in[succ]; !ok {
				first = true
			}
			in[succ] = merged
			if (changed || first) && !seen[succ] {
				seen[succ] = true
				work = append(work, succ)
			}
		}
	}
	return in, out
}
