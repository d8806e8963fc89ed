// Package dataflow builds intra-procedural control-flow graphs over the
// typed AST and answers one question about them: "can this write ever be
// read?" (def-use chains over the reachable blocks, defuse.go). It is the
// intra-procedural layer under errflow, sitting beside
// internal/lint/callgraph the way a function-local CFG sits beside a
// program-wide call graph.
//
// The CFG is deliberately syntactic: one graph per function body, basic
// blocks of statements and the sub-expressions evaluated with them, and
// edges for if/for/range/switch/type-switch/select/return and
// break/continue (including labeled forms). Closure interiors are NOT
// part of the enclosing graph — a FuncLit body runs whenever the value
// is called, so its nodes map to no block and analyzers skip them; build
// a separate CFG for the literal's body to analyze it. Two constructs
// get conservative treatment: goto transfers to the function exit (the
// repo has none), and unreachable code gets floating blocks that
// DeadWrites skips (dead code drops no error at runtime).
package dataflow

import (
	"go/ast"
	"go/token"
)

// Block is one basic block: a maximal straight-line run of statements
// and the expressions evaluated with them, in execution order.
type Block struct {
	// Index is the block's position in CFG.Blocks.
	Index int
	// Nodes lists the atoms — simple statements, conditions, range
	// operands — evaluated in this block, in execution order.
	Nodes []ast.Node
	// Succs and Preds are the control-flow edges.
	Succs []*Block
	Preds []*Block
}

// CFG is the control-flow graph of one function body.
type CFG struct {
	Entry  *Block
	Exit   *Block
	Blocks []*Block

	// nodeBlock maps every AST node evaluated by the function — down to
	// the leaves of each atom, stopping at FuncLit boundaries — to its
	// block.
	nodeBlock map[ast.Node]*Block
	// reach[b.Index] reports whether b is reachable from Entry.
	reach []bool
}

// New builds the CFG of a function body and marks its reachable blocks.
func New(body *ast.BlockStmt) *CFG {
	cfg := &CFG{nodeBlock: map[ast.Node]*Block{}}
	b := &builder{cfg: cfg, labels: map[string]*labelTargets{}}
	cfg.Entry = cfg.newBlock()
	cfg.Exit = cfg.newBlock()
	b.cur = cfg.Entry
	b.stmtList(body.List)
	if b.cur != nil {
		b.edge(b.cur, cfg.Exit)
	}
	cfg.computeReach()
	return cfg
}

// BlockOf returns the block evaluating n, or nil when n is not part of
// this graph (it sits inside a closure, or in a different function).
func (c *CFG) BlockOf(n ast.Node) *Block { return c.nodeBlock[n] }

func (c *CFG) newBlock() *Block {
	b := &Block{Index: len(c.Blocks)}
	c.Blocks = append(c.Blocks, b)
	return b
}

// computeReach marks the blocks reachable from Entry.
func (c *CFG) computeReach() {
	c.reach = make([]bool, len(c.Blocks))
	c.reach[c.Entry.Index] = true
	for stack := []*Block{c.Entry}; len(stack) > 0; {
		b := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		for _, s := range b.Succs {
			if !c.reach[s.Index] {
				c.reach[s.Index] = true
				stack = append(stack, s)
			}
		}
	}
}

// labelTargets resolves `break L` and `continue L`.
type labelTargets struct {
	brk, cont *Block
}

type builder struct {
	cfg *CFG
	// cur is the block under construction; nil after a terminator
	// (return, break, continue, goto) until new code starts a fresh,
	// unreachable block.
	cur *Block
	// breaks and continues are the innermost targets of unlabeled
	// break/continue; break covers for/range/switch/select, continue
	// loops only.
	breaks    []*Block
	continues []*Block
	labels    map[string]*labelTargets
	// pendingLabel names the label attached to the next loop or switch
	// statement, so `break L`/`continue L` resolve to its targets.
	pendingLabel string
}

func (b *builder) edge(from, to *Block) {
	from.Succs = append(from.Succs, to)
	to.Preds = append(to.Preds, from)
}

// atom appends n to the current block and maps n and its evaluated
// descendants (stopping at FuncLit interiors) to it.
func (b *builder) atom(n ast.Node) {
	if n == nil {
		return
	}
	if b.cur == nil {
		b.cur = b.cfg.newBlock() // unreachable code gets a floating block
	}
	b.cur.Nodes = append(b.cur.Nodes, n)
	blk := b.cur
	ast.Inspect(n, func(child ast.Node) bool {
		if child == nil {
			return false
		}
		b.cfg.nodeBlock[child] = blk
		// The FuncLit node itself is evaluated here (the closure value),
		// but its body runs whenever the value is called — not part of
		// this graph.
		if fl, ok := child.(*ast.FuncLit); ok {
			b.cfg.nodeBlock[fl] = blk
			return false
		}
		return true
	})
}

func (b *builder) stmtList(list []ast.Stmt) {
	for _, s := range list {
		b.stmt(s)
	}
}

func (b *builder) stmt(s ast.Stmt) {
	// Consume the pending label unless this statement is the construct
	// it names.
	label := b.pendingLabel
	switch s.(type) {
	case *ast.ForStmt, *ast.RangeStmt, *ast.SwitchStmt, *ast.TypeSwitchStmt, *ast.SelectStmt:
	default:
		label = ""
	}
	b.pendingLabel = ""

	switch s := s.(type) {
	case *ast.BlockStmt:
		b.stmtList(s.List)
	case *ast.LabeledStmt:
		b.pendingLabel = s.Label.Name
		b.stmt(s.Stmt)
		b.pendingLabel = ""
	case *ast.ReturnStmt:
		b.atom(s)
		b.edge(b.cur, b.cfg.Exit)
		b.cur = nil
	case *ast.BranchStmt:
		b.branch(s)
	case *ast.IfStmt:
		b.ifStmt(s)
	case *ast.ForStmt:
		b.forStmt(s, label)
	case *ast.RangeStmt:
		b.rangeStmt(s, label)
	case *ast.SwitchStmt:
		b.switchStmt(s, label)
	case *ast.TypeSwitchStmt:
		b.typeSwitchStmt(s, label)
	case *ast.SelectStmt:
		b.selectStmt(s, label)
	case *ast.EmptyStmt:
	default:
		// Simple statements: assignments, expression statements, go,
		// defer, send, inc/dec, declarations. A defer's call arguments
		// are evaluated here, at the defer statement, so attributing the
		// atom to this block is exact for everything but the deferred
		// closure body — which, like all closure interiors, is out of
		// graph.
		b.atom(s)
	}
}

func (b *builder) branch(s *ast.BranchStmt) {
	b.atom(s)
	var target *Block
	switch s.Tok {
	case token.BREAK:
		if s.Label != nil {
			if lt := b.labels[s.Label.Name]; lt != nil {
				target = lt.brk
			}
		} else if len(b.breaks) > 0 {
			target = b.breaks[len(b.breaks)-1]
		}
	case token.CONTINUE:
		if s.Label != nil {
			if lt := b.labels[s.Label.Name]; lt != nil {
				target = lt.cont
			}
		} else if len(b.continues) > 0 {
			target = b.continues[len(b.continues)-1]
		}
	case token.GOTO:
		// Conservative: treat as leaving the function. A write then
		// survives to exit, so this can hide a dead write, never fabricate
		// one.
		target = b.cfg.Exit
	case token.FALLTHROUGH:
		// Legal only as the last statement of a switch case; the switch
		// builder wires the edge to the next clause.
		return
	}
	if target == nil {
		target = b.cfg.Exit
	}
	b.edge(b.cur, target)
	b.cur = nil
}

func (b *builder) ifStmt(s *ast.IfStmt) {
	if s.Init != nil {
		b.atom(s.Init)
	}
	b.atom(s.Cond)
	cond := b.cur
	join := b.cfg.newBlock()

	then := b.cfg.newBlock()
	b.edge(cond, then)
	b.cur = then
	b.stmtList(s.Body.List)
	if b.cur != nil {
		b.edge(b.cur, join)
	}

	if s.Else != nil {
		els := b.cfg.newBlock()
		b.edge(cond, els)
		b.cur = els
		b.stmt(s.Else)
		if b.cur != nil {
			b.edge(b.cur, join)
		}
	} else {
		b.edge(cond, join)
	}
	b.cur = join
}

func (b *builder) forStmt(s *ast.ForStmt, label string) {
	if s.Init != nil {
		b.atom(s.Init)
	}
	if b.cur == nil {
		b.cur = b.cfg.newBlock()
	}
	head := b.cfg.newBlock()
	b.edge(b.cur, head)
	b.cur = head
	if s.Cond != nil {
		b.atom(s.Cond)
	}
	exit := b.cfg.newBlock()
	if s.Cond != nil {
		b.edge(head, exit)
	}
	var post *Block
	contTarget := head
	if s.Post != nil {
		post = b.cfg.newBlock()
		contTarget = post
	}

	body := b.cfg.newBlock()
	b.edge(head, body)
	b.cur = body
	b.pushLoop(label, exit, contTarget)
	b.stmtList(s.Body.List)
	b.popLoop(label)
	if b.cur != nil {
		b.edge(b.cur, contTarget)
	}
	if post != nil {
		b.cur = post
		b.atom(s.Post)
		b.edge(b.cur, head)
	}
	b.cur = exit
}

func (b *builder) rangeStmt(s *ast.RangeStmt, label string) {
	b.atom(s.X)
	head := b.cfg.newBlock()
	b.edge(b.cur, head)
	b.cur = head
	// Key/Value assignment happens once per iteration, in the head.
	if s.Key != nil {
		b.atom(s.Key)
	}
	if s.Value != nil {
		b.atom(s.Value)
	}
	exit := b.cfg.newBlock()
	b.edge(head, exit)

	body := b.cfg.newBlock()
	b.edge(head, body)
	b.cur = body
	b.pushLoop(label, exit, head)
	b.stmtList(s.Body.List)
	b.popLoop(label)
	if b.cur != nil {
		b.edge(b.cur, head)
	}
	b.cur = exit
}

func (b *builder) switchStmt(s *ast.SwitchStmt, label string) {
	if s.Init != nil {
		b.atom(s.Init)
	}
	if s.Tag != nil {
		b.atom(s.Tag)
	}
	head := b.cur
	if head == nil {
		head = b.cfg.newBlock()
		b.cur = head
	}
	exit := b.cfg.newBlock()
	b.pushBreak(label, exit)

	var clauses []*ast.CaseClause
	for _, cl := range s.Body.List {
		clauses = append(clauses, cl.(*ast.CaseClause))
	}
	blocks := make([]*Block, len(clauses))
	hasDefault := false
	for i, cl := range clauses {
		blocks[i] = b.cfg.newBlock()
		b.edge(head, blocks[i])
		if cl.List == nil {
			hasDefault = true
		}
	}
	if !hasDefault {
		b.edge(head, exit)
	}
	for i, cl := range clauses {
		b.cur = blocks[i]
		for _, e := range cl.List {
			b.atom(e)
		}
		body := cl.Body
		fallsThrough := false
		if n := len(body); n > 0 {
			if br, ok := body[n-1].(*ast.BranchStmt); ok && br.Tok == token.FALLTHROUGH {
				fallsThrough = true
			}
		}
		b.stmtList(body)
		if fallsThrough && i+1 < len(blocks) {
			if b.cur != nil {
				b.edge(b.cur, blocks[i+1])
			}
			b.cur = nil
			continue
		}
		if b.cur != nil {
			b.edge(b.cur, exit)
		}
	}
	b.popBreak(label)
	b.cur = exit
}

func (b *builder) typeSwitchStmt(s *ast.TypeSwitchStmt, label string) {
	if s.Init != nil {
		b.atom(s.Init)
	}
	b.atom(s.Assign)
	head := b.cur
	exit := b.cfg.newBlock()
	b.pushBreak(label, exit)

	hasDefault := false
	var blocks []*Block
	var clauses []*ast.CaseClause
	for _, cl := range s.Body.List {
		cc := cl.(*ast.CaseClause)
		clauses = append(clauses, cc)
		nb := b.cfg.newBlock()
		blocks = append(blocks, nb)
		b.edge(head, nb)
		if cc.List == nil {
			hasDefault = true
		}
	}
	if !hasDefault {
		b.edge(head, exit)
	}
	for i, cl := range clauses {
		b.cur = blocks[i]
		b.stmtList(cl.Body)
		if b.cur != nil {
			b.edge(b.cur, exit)
		}
	}
	b.popBreak(label)
	b.cur = exit
}

func (b *builder) selectStmt(s *ast.SelectStmt, label string) {
	head := b.cur
	if head == nil {
		head = b.cfg.newBlock()
		b.cur = head
	}
	exit := b.cfg.newBlock()
	b.pushBreak(label, exit)
	for _, cl := range s.Body.List {
		cc := cl.(*ast.CommClause)
		nb := b.cfg.newBlock()
		b.edge(head, nb)
		b.cur = nb
		if cc.Comm != nil {
			b.atom(cc.Comm)
		}
		b.stmtList(cc.Body)
		if b.cur != nil {
			b.edge(b.cur, exit)
		}
	}
	b.popBreak(label)
	// A select with no clauses blocks forever; exit is then unreachable,
	// which computeReach marks.
	b.cur = exit
}

func (b *builder) pushLoop(label string, brk, cont *Block) {
	b.breaks = append(b.breaks, brk)
	b.continues = append(b.continues, cont)
	if label != "" {
		b.labels[label] = &labelTargets{brk: brk, cont: cont}
	}
}

func (b *builder) popLoop(label string) {
	b.breaks = b.breaks[:len(b.breaks)-1]
	b.continues = b.continues[:len(b.continues)-1]
	if label != "" {
		delete(b.labels, label)
	}
}

func (b *builder) pushBreak(label string, brk *Block) {
	b.breaks = append(b.breaks, brk)
	if label != "" {
		b.labels[label] = &labelTargets{brk: brk}
	}
}

func (b *builder) popBreak(label string) {
	b.breaks = b.breaks[:len(b.breaks)-1]
	if label != "" {
		delete(b.labels, label)
	}
}
