package logic

// kop enumerates the operations of a compiled Program.
type kop uint8

const (
	kConst kop = iota // dst = 0
	kCopy             // dst = a
	kAnd              // dst = a & b
	kOr               // dst = a | b
	kXor              // dst = a ^ b
)

// instr is one straight-line word-slice operation; invert complements
// its result. Slots number the inputs first (0..inputs-1), then the
// scratch registers; slot -1 is the output.
type instr struct {
	op     kop
	invert bool
	dst    int
	a, b   int
}

// Program is an expression compiled to straight-line operations over
// whole word slices: two-operand AND, OR and XOR, copy, and constant,
// each with an invert-output flag. Run computes for every word what
// Expr.EvalWords computes for one. A Program is immutable and safe to
// share between goroutines; the scratch registers Run needs belong to
// the caller.
type Program struct {
	code   []instr
	inputs int
	regs   int
}

// Compile compiles e over the given number of input variables. As in
// EvalWords, a variable at or beyond inputs reads as constant false.
func Compile(e *Expr, inputs int) *Program {
	c := &compiler{p: &Program{inputs: inputs}}
	c.expr(e, -1, false)
	return c.p
}

// Regs returns the number of scratch registers Run needs.
func (p *Program) Regs() int { return p.regs }

// Run evaluates the program word by word: in[i] holds the words of
// variable i, and out receives len(out) result words. in needs at least
// the compiled input count of slices and regs at least Regs(), each at
// least len(out) words long. out must not alias an input.
func (p *Program) Run(in [][]uint64, out []uint64, regs [][]uint64) {
	n := len(out)
	slot := func(s int) []uint64 {
		switch {
		case s < 0:
			return out
		case s < p.inputs:
			return in[s][:n]
		}
		return regs[s-p.inputs][:n]
	}
	for _, ins := range p.code {
		d := slot(ins.dst)
		switch ins.op {
		case kConst:
			var v uint64
			if ins.invert {
				v = ^v
			}
			for w := range d {
				d[w] = v
			}
		case kCopy:
			a := slot(ins.a)
			if ins.invert {
				for w := range d {
					d[w] = ^a[w]
				}
			} else {
				copy(d, a)
			}
		case kAnd:
			a, b := slot(ins.a), slot(ins.b)
			if ins.invert {
				for w := range d {
					d[w] = ^(a[w] & b[w])
				}
			} else {
				for w := range d {
					d[w] = a[w] & b[w]
				}
			}
		case kOr:
			a, b := slot(ins.a), slot(ins.b)
			if ins.invert {
				for w := range d {
					d[w] = ^(a[w] | b[w])
				}
			} else {
				for w := range d {
					d[w] = a[w] | b[w]
				}
			}
		case kXor:
			a, b := slot(ins.a), slot(ins.b)
			if ins.invert {
				for w := range d {
					d[w] = ^(a[w] ^ b[w])
				}
			} else {
				for w := range d {
					d[w] = a[w] ^ b[w]
				}
			}
		}
	}
}

// compiler emits a Program; registers are allocated as a stack, so a
// subexpression's temporaries are free again once its value is used.
type compiler struct {
	p    *Program
	next int // next free register
}

func (c *compiler) emit(op kop, invert bool, dst, a, b int) {
	c.p.code = append(c.p.code, instr{op: op, invert: invert, dst: dst, a: a, b: b})
}

// expr emits code that writes e, complemented when invert is set, to
// slot dst.
func (c *compiler) expr(e *Expr, dst int, invert bool) {
	switch e.Op {
	case OpConst0:
		c.emit(kConst, invert, dst, 0, 0)
	case OpConst1:
		c.emit(kConst, !invert, dst, 0, 0)
	case OpVar:
		if e.Var >= c.p.inputs {
			c.emit(kConst, invert, dst, 0, 0)
			return
		}
		c.emit(kCopy, invert, dst, e.Var, 0)
	case OpNot:
		c.expr(e.Children[0], dst, !invert)
	case OpAnd, OpOr, OpXor:
		op := kAnd
		switch e.Op {
		case OpOr:
			op = kOr
		case OpXor:
			op = kXor
		}
		switch len(e.Children) {
		case 0:
			// The empty product is true; the empty sum and parity false.
			c.emit(kConst, invert != (e.Op == OpAnd), dst, 0, 0)
			return
		case 1:
			c.expr(e.Children[0], dst, invert)
			return
		}
		mark := c.next
		acc := c.operand(e.Children[0])
		for i, ch := range e.Children[1:] {
			x := c.operand(ch)
			c.emit(op, invert && i == len(e.Children)-2, dst, acc, x)
			acc = dst
			c.next = mark
		}
	default:
		panic("logic: bad op in Compile")
	}
}

// operand returns a slot holding e's value: the input slot itself for
// a plain variable, else a fresh register the value is computed into.
func (c *compiler) operand(e *Expr) int {
	if e.Op == OpVar && e.Var < c.p.inputs {
		return e.Var
	}
	r := c.p.inputs + c.next
	c.next++
	c.p.regs = max(c.p.regs, c.next)
	c.expr(e, r, false)
	return r
}
