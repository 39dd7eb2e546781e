package minipy

import (
	"encoding/binary"
	"fmt"
	"math"
)

// Opcodes of the stack VM.
const (
	opConst byte = iota // u16 const-pool index → push
	opLoad              // u16 slot → push cell value
	opStore             // u16 slot ← pop
	opAdd
	opSub
	opMul
	opDiv
	opFloorDiv
	opMod
	opPow
	opNeg
	opNot
	opLT
	opLE
	opGT
	opGE
	opEQ
	opNE
	opJmp     // u16 absolute target
	opJz      // u16 target; pop, jump if zero
	opJnzKeep // u16 target; jump if nonzero keeping value (for `or`)
	opJzKeep  // u16 target; jump if zero keeping value (for `and`)
	opPop
	opCallB // u8 builtin id, u8 argc
	opCallF // u16 function index, u8 argc
	opRet
	opNop
	opConstStr   // u16 string-pool index → push string value
	opBuildList  // u16 element count → pop elements, push list
	opIndex      // pop idx, obj → push obj[idx]
	opStoreIndex // pop val, idx, obj → obj[idx] = val
	opMethod     // u8 method id, u8 argc: pop args, receiver
	opBuildDict  // u16 pair count → pop key/value pairs, push dict
)

// Method identifiers for opMethod.
const (
	mAppend byte = iota
	mPop
	mGet  // dict.get(key) → value or None
	mKeys // dict.keys() → list
)

// Builtin identifiers.
const (
	bSqrt byte = iota
	bSin
	bCos
	bTan
	bAbs
	bFloor
	bCeil
	bExp
	bLog
	bPow
	bMin
	bMax
	bTime  // virtual time in seconds
	bInt   // truncate
	bPrint // write the value to stdout through the kernel
	bLen   // length of a string or list
	bOrd   // first byte of a string
	bChr   // one-character string from a byte value
	bStr   // stringify
)

// builtinIDs resolves the callable names the subset supports. Both bare
// and math-qualified spellings are accepted.
var builtinIDs = map[string]byte{
	"sqrt": bSqrt, "math.sqrt": bSqrt,
	"sin": bSin, "math.sin": bSin,
	"cos": bCos, "math.cos": bCos,
	"tan": bTan, "math.tan": bTan,
	"abs": bAbs, "math.fabs": bAbs,
	"floor": bFloor, "math.floor": bFloor,
	"ceil": bCeil, "math.ceil": bCeil,
	"exp": bExp, "math.exp": bExp,
	"log": bLog, "math.log": bLog,
	"pow": bPow, "math.pow": bPow,
	"min": bMin, "max": bMax,
	"time": bTime, "time.time": bTime,
	"int": bInt, "float": bNop(),
	"print": bPrint,
	"len":   bLen, "ord": bOrd, "chr": bChr, "str": bStr,
}

// bNop maps float() to an identity builtin id; reuse bInt semantics minus
// truncation by giving it a distinct id.
func bNop() byte { return 200 }

// builtinArgc gives each builtin's expected arity.
var builtinArgc = map[byte]int{
	bSqrt: 1, bSin: 1, bCos: 1, bTan: 1, bAbs: 1, bFloor: 1, bCeil: 1,
	bExp: 1, bLog: 1, bPow: 2, bMin: 2, bMax: 2, bTime: 0, bInt: 1, 200: 1,
	bPrint: 1, bLen: 1, bOrd: 1, bChr: 1, bStr: 1,
}

// Func is one compiled function.
type Func struct {
	Name    string
	NParams int
	NLocals int // includes params
	Code    []byte
	// locals maps names to slots (params first); globals referenced from
	// the function resolve to global slots via globalRefs.
	locals map[string]int
}

// Program is a compiled module.
type Program struct {
	Funcs    []*Func // Funcs[0] is the module body ("__main__")
	Consts   []float64
	Strings  []string // string-literal pool
	NGlobals int
	globals  map[string]int
	funcIdx  map[string]int
}

// FuncIndex resolves a function name to its index.
func (pr *Program) FuncIndex(name string) (int, bool) {
	i, ok := pr.funcIdx[name]
	return i, ok
}

// Compile parses and compiles a module.
func Compile(src string) (*Program, error) {
	mod, err := parse(src)
	if err != nil {
		return nil, err
	}
	pr := &Program{
		globals: map[string]int{},
		funcIdx: map[string]int{},
	}
	// Function 0 is the module body.
	main := &Func{Name: "__main__", locals: map[string]int{}}
	pr.Funcs = append(pr.Funcs, main)
	pr.funcIdx["__main__"] = 0

	// First pass: collect function definitions so forward calls resolve.
	var topLevel []stmt
	for _, s := range mod.body {
		if d, ok := s.(defStmt); ok {
			f := &Func{Name: d.name, NParams: len(d.params), locals: map[string]int{}}
			for _, prm := range d.params {
				f.locals[prm] = len(f.locals)
			}
			pr.funcIdx[d.name] = len(pr.Funcs)
			pr.Funcs = append(pr.Funcs, f)
		} else {
			topLevel = append(topLevel, s)
		}
	}
	// Second pass: compile bodies.
	for _, s := range mod.body {
		if d, ok := s.(defStmt); ok {
			f := pr.Funcs[pr.funcIdx[d.name]]
			c := &compiler{pr: pr, fn: f, isMain: false, globalDecl: map[string]bool{}}
			if err := c.block(d.body); err != nil {
				return nil, err
			}
			c.emit(opConst, c.constIdx(0))
			c.emitOp(opRet)
			f.NLocals = len(f.locals)
		}
	}
	cm := &compiler{pr: pr, fn: main, isMain: true, globalDecl: map[string]bool{}}
	if err := cm.block(topLevel); err != nil {
		return nil, err
	}
	cm.emit(opConst, cm.constIdx(0))
	cm.emitOp(opRet)
	main.NLocals = 0 // module body uses only globals
	pr.NGlobals = len(pr.globals)
	return pr, nil
}

// splitMethod splits "recv.meth" into its parts; multi-dot names (module
// qualifications) are not methods.
func splitMethod(fn string) (head, meth string, ok bool) {
	for i := 0; i < len(fn); i++ {
		if fn[i] == '.' {
			head, meth = fn[:i], fn[i+1:]
			for j := 0; j < len(meth); j++ {
				if meth[j] == '.' {
					return "", "", false
				}
			}
			return head, meth, head != "" && meth != ""
		}
	}
	return "", "", false
}

// compiler emits bytecode for one function.
type compiler struct {
	pr         *Program
	fn         *Func
	isMain     bool
	globalDecl map[string]bool
	breaks     []int // patch sites of innermost loop
	continues  []int
	loopDepth  int
}

func (c *compiler) emitOp(op byte) { c.fn.Code = append(c.fn.Code, op) }

func (c *compiler) emit(op byte, operand int) {
	c.fn.Code = append(c.fn.Code, op, byte(operand), byte(operand>>8))
}

func (c *compiler) emitCallB(id byte, argc int) {
	c.fn.Code = append(c.fn.Code, opCallB, id, byte(argc))
}

func (c *compiler) emitCallF(idx, argc int) {
	c.fn.Code = append(c.fn.Code, opCallF, byte(idx), byte(idx>>8), byte(argc))
}

// jump emits a jump with a placeholder target, returning the patch site.
func (c *compiler) jump(op byte) int {
	c.emit(op, 0)
	return len(c.fn.Code) - 2
}

func (c *compiler) patch(site int) {
	binary.LittleEndian.PutUint16(c.fn.Code[site:], uint16(len(c.fn.Code)))
}

func (c *compiler) patchTo(site, target int) {
	binary.LittleEndian.PutUint16(c.fn.Code[site:], uint16(target))
}

func (c *compiler) strIdx(v string) int {
	for i, x := range c.pr.Strings {
		if x == v {
			return i
		}
	}
	c.pr.Strings = append(c.pr.Strings, v)
	return len(c.pr.Strings) - 1
}

func (c *compiler) constIdx(v float64) int {
	for i, x := range c.pr.Consts {
		if x == v || (math.IsNaN(x) && math.IsNaN(v)) {
			return i
		}
	}
	c.pr.Consts = append(c.pr.Consts, v)
	return len(c.pr.Consts) - 1
}

// slotFor resolves a name for load/store. Slots ≥ globalBase refer to the
// global table; the VM splits on this.
const globalBase = 0x8000

func (c *compiler) slotFor(name string, store bool) int {
	if !c.isMain && !c.globalDecl[name] {
		if s, ok := c.fn.locals[name]; ok {
			return s
		}
		if store {
			s := len(c.fn.locals)
			c.fn.locals[name] = s
			return s
		}
		// Fall through to globals for reads of names never assigned
		// locally.
	}
	if s, ok := c.pr.globals[name]; ok {
		return globalBase + s
	}
	s := len(c.pr.globals)
	c.pr.globals[name] = s
	return globalBase + s
}

func (c *compiler) block(body []stmt) error {
	for _, s := range body {
		if err := c.stmt(s); err != nil {
			return err
		}
	}
	return nil
}

func (c *compiler) stmt(s stmt) error {
	switch s := s.(type) {
	case passStmt:
		return nil
	case globalStmt:
		for _, n := range s.names {
			c.globalDecl[n] = true
		}
		return nil
	case assign:
		if s.op != "=" {
			// augmented: load, op, store
			c.emit(opLoad, c.slotFor(s.name, false))
			if err := c.expr(s.val); err != nil {
				return err
			}
			switch s.op {
			case "+=":
				c.emitOp(opAdd)
			case "-=":
				c.emitOp(opSub)
			case "*=":
				c.emitOp(opMul)
			case "/=":
				c.emitOp(opDiv)
			}
		} else {
			if err := c.expr(s.val); err != nil {
				return err
			}
		}
		c.emit(opStore, c.slotFor(s.name, true))
		return nil
	case exprStmt:
		if err := c.expr(s.x); err != nil {
			return err
		}
		c.emitOp(opPop)
		return nil
	case indexAssign:
		if err := c.expr(s.obj); err != nil {
			return err
		}
		if err := c.expr(s.idx); err != nil {
			return err
		}
		if err := c.expr(s.val); err != nil {
			return err
		}
		c.emitOp(opStoreIndex)
		return nil
	case returnStmt:
		if s.x == nil {
			c.emit(opConst, c.constIdx(0))
		} else if err := c.expr(s.x); err != nil {
			return err
		}
		c.emitOp(opRet)
		return nil
	case breakStmt:
		if c.loopDepth == 0 {
			return fmt.Errorf("minipy: break outside loop")
		}
		c.breaks = append(c.breaks, c.jump(opJmp))
		return nil
	case continueStmt:
		if c.loopDepth == 0 {
			return fmt.Errorf("minipy: continue outside loop")
		}
		c.continues = append(c.continues, c.jump(opJmp))
		return nil
	case ifStmt:
		if err := c.expr(s.cond); err != nil {
			return err
		}
		jz := c.jump(opJz)
		if err := c.block(s.then); err != nil {
			return err
		}
		if len(s.els) > 0 {
			jend := c.jump(opJmp)
			c.patch(jz)
			if err := c.block(s.els); err != nil {
				return err
			}
			c.patch(jend)
		} else {
			c.patch(jz)
		}
		return nil
	case whileStmt:
		top := len(c.fn.Code)
		if err := c.expr(s.cond); err != nil {
			return err
		}
		jz := c.jump(opJz)
		savedB, savedC := c.breaks, c.continues
		c.breaks, c.continues = nil, nil
		c.loopDepth++
		if err := c.block(s.body); err != nil {
			return err
		}
		c.loopDepth--
		for _, site := range c.continues {
			c.patchTo(site, top)
		}
		c.emit(opJmp, top)
		c.patch(jz)
		for _, site := range c.breaks {
			c.patch(site)
		}
		c.breaks, c.continues = savedB, savedC
		return nil
	case forStmt:
		// Desugared: i = start; while i < stop: body; i += step
		slot := c.slotFor(s.name, true)
		if err := c.expr(s.start); err != nil {
			return err
		}
		c.emit(opStore, slot)
		// stop and step are evaluated once into hidden slots.
		stopSlot := c.slotFor(fmt.Sprintf("$stop%d", len(c.fn.Code)), true)
		if err := c.expr(s.stop); err != nil {
			return err
		}
		c.emit(opStore, stopSlot)
		stepSlot := c.slotFor(fmt.Sprintf("$step%d", len(c.fn.Code)), true)
		if s.stp == nil {
			c.emit(opConst, c.constIdx(1))
		} else if err := c.expr(s.stp); err != nil {
			return err
		}
		c.emit(opStore, stepSlot)
		top := len(c.fn.Code)
		c.emit(opLoad, slot)
		c.emit(opLoad, stopSlot)
		c.emitOp(opLT)
		jz := c.jump(opJz)
		savedB, savedC := c.breaks, c.continues
		c.breaks, c.continues = nil, nil
		c.loopDepth++
		if err := c.block(s.body); err != nil {
			return err
		}
		c.loopDepth--
		incr := len(c.fn.Code)
		for _, site := range c.continues {
			c.patchTo(site, incr)
		}
		c.emit(opLoad, slot)
		c.emit(opLoad, stepSlot)
		c.emitOp(opAdd)
		c.emit(opStore, slot)
		c.emit(opJmp, top)
		c.patch(jz)
		for _, site := range c.breaks {
			c.patch(site)
		}
		c.breaks, c.continues = savedB, savedC
		return nil
	case defStmt:
		return fmt.Errorf("minipy: nested def not supported")
	default:
		return fmt.Errorf("minipy: unknown statement %T", s)
	}
}

func (c *compiler) expr(x expr) error {
	switch x := x.(type) {
	case numLit:
		c.emit(opConst, c.constIdx(x.v))
		return nil
	case strLit:
		c.emit(opConstStr, c.strIdx(x.s))
		return nil
	case listLit:
		for _, e := range x.elems {
			if err := c.expr(e); err != nil {
				return err
			}
		}
		c.emit(opBuildList, len(x.elems))
		return nil
	case dictLit:
		for i := range x.keys {
			if err := c.expr(x.keys[i]); err != nil {
				return err
			}
			if err := c.expr(x.vals[i]); err != nil {
				return err
			}
		}
		c.emit(opBuildDict, len(x.keys))
		return nil
	case indexExpr:
		if err := c.expr(x.obj); err != nil {
			return err
		}
		if err := c.expr(x.idx); err != nil {
			return err
		}
		c.emitOp(opIndex)
		return nil
	case nameRef:
		c.emit(opLoad, c.slotFor(x.name, false))
		return nil
	case unary:
		if err := c.expr(x.x); err != nil {
			return err
		}
		if x.op == "-" {
			c.emitOp(opNeg)
		} else {
			c.emitOp(opNot)
		}
		return nil
	case boolOp:
		if err := c.expr(x.l); err != nil {
			return err
		}
		var site int
		if x.op == "and" {
			site = c.jump(opJzKeep)
		} else {
			site = c.jump(opJnzKeep)
		}
		c.emitOp(opPop)
		if err := c.expr(x.r); err != nil {
			return err
		}
		c.patch(site)
		return nil
	case binOp:
		if err := c.expr(x.l); err != nil {
			return err
		}
		if err := c.expr(x.r); err != nil {
			return err
		}
		ops := map[string]byte{
			"+": opAdd, "-": opSub, "*": opMul, "/": opDiv, "//": opFloorDiv,
			"%": opMod, "**": opPow, "<": opLT, "<=": opLE, ">": opGT,
			">=": opGE, "==": opEQ, "!=": opNE,
		}
		op, ok := ops[x.op]
		if !ok {
			return fmt.Errorf("minipy: unknown operator %q", x.op)
		}
		c.emitOp(op)
		return nil
	case call:
		// Method call: receiver.method(args) — receiver pushed first.
		if head, meth, ok := splitMethod(x.fn); ok {
			if _, isBuiltin := builtinIDs[x.fn]; !isBuiltin {
				var mid byte
				switch meth {
				case "append":
					mid = mAppend
					if len(x.args) != 1 {
						return fmt.Errorf("minipy: append takes 1 arg")
					}
				case "pop":
					mid = mPop
					if len(x.args) != 0 {
						return fmt.Errorf("minipy: pop takes no args")
					}
				case "get":
					mid = mGet
					if len(x.args) != 1 {
						return fmt.Errorf("minipy: get takes 1 arg")
					}
				case "keys":
					mid = mKeys
					if len(x.args) != 0 {
						return fmt.Errorf("minipy: keys takes no args")
					}
				default:
					return fmt.Errorf("minipy: unknown method %q", meth)
				}
				c.emit(opLoad, c.slotFor(head, false))
				for _, a := range x.args {
					if err := c.expr(a); err != nil {
						return err
					}
				}
				c.fn.Code = append(c.fn.Code, opMethod, mid, byte(len(x.args)))
				return nil
			}
		}
		for _, a := range x.args {
			if err := c.expr(a); err != nil {
				return err
			}
		}
		if id, ok := builtinIDs[x.fn]; ok {
			want := builtinArgc[id]
			if want >= 0 && len(x.args) != want {
				return fmt.Errorf("minipy: %s takes %d args, got %d", x.fn, want, len(x.args))
			}
			c.emitCallB(id, len(x.args))
			return nil
		}
		if idx, ok := c.pr.funcIdx[x.fn]; ok {
			f := c.pr.Funcs[idx]
			if len(x.args) != f.NParams {
				return fmt.Errorf("minipy: %s takes %d args, got %d", x.fn, f.NParams, len(x.args))
			}
			c.emitCallF(idx, len(x.args))
			return nil
		}
		return fmt.Errorf("minipy: unknown function %q", x.fn)
	default:
		return fmt.Errorf("minipy: unknown expression %T", x)
	}
}
