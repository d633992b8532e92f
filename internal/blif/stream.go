package blif

// Streaming reader: an io.Reader-driven incremental parser. The buffered
// variant (Parse) used to split the whole source into a line slice before
// resolving anything, which made parse memory — not optimization — the
// ceiling for large designs. ParseReader holds one line at a time and
// builds each .names block into the netlist the moment its dependencies
// are defined; only blocks that arrive before their fanins (the writer's
// inverter nets, out-of-order models) are parked, keyed by the first
// missing dependency, and replayed as soon as it appears.

import (
	"bufio"
	"bytes"
	"fmt"
	"io"
	"strings"

	"repro/internal/netlist"
)

// block is one parked .names block awaiting a dependency.
type block struct {
	signals []string
	rows    []string
	outVal  byte
}

// ParseReader reads one BLIF model from r into a netlist, incrementally.
// It accepts exactly the dialect Parse does; Parse delegates here.
//
// Decoding is strict: a signal driven twice (a second .names for it, or a
// .names over a primary input) and a name listed twice in .inputs or
// .outputs are errors naming the signal and its line, never a silent
// choice between the definitions.
func ParseReader(r io.Reader) (*netlist.Network, error) {
	net := netlist.New("")
	env := map[string]netlist.Signal{}
	// waiting holds parked blocks keyed by the (first) signal they still
	// need; pending counts them so unresolvable inputs are reported.
	waiting := map[string][]*block{}
	pending := 0
	var outputs []string
	var cur *block
	// defs records where each signal was defined (as an input or a .names
	// output), and outLine where each output was declared, for the
	// duplicate checks.
	type def struct {
		line  int
		input bool
	}
	defs := map[string]def{}
	outLine := map[string]int{}

	// tryBuild resolves a block whose dependencies are all defined (or
	// parks it on the first missing one); defining a signal replays every
	// block parked on it. The replay is an explicit worklist, so an
	// arbitrarily deep dependency chain costs heap, not stack.
	tryBuild := func(b *block) error {
		work := []*block{b}
		for len(work) > 0 {
			b := work[len(work)-1]
			work = work[:len(work)-1]
			deps := b.signals[:len(b.signals)-1]
			missing := ""
			for _, d := range deps {
				if _, ok := env[d]; !ok {
					missing = d
					break
				}
			}
			if missing != "" {
				waiting[missing] = append(waiting[missing], b)
				pending++
				continue
			}
			sig, err := buildCover(net, env, b.signals, b.rows, b.outVal)
			if err != nil {
				return err
			}
			name := b.signals[len(b.signals)-1]
			env[name] = sig
			if parked := waiting[name]; len(parked) > 0 {
				delete(waiting, name)
				pending -= len(parked)
				work = append(work, parked...)
			}
		}
		return nil
	}
	define := func(name string, sig netlist.Signal) error {
		env[name] = sig
		parked := waiting[name]
		if len(parked) == 0 {
			return nil
		}
		delete(waiting, name)
		pending -= len(parked)
		for _, b := range parked {
			if err := tryBuild(b); err != nil {
				return err
			}
		}
		return nil
	}
	flush := func() error {
		if cur == nil {
			return nil
		}
		b := cur
		cur = nil
		return tryBuild(b)
	}

	// readLine yields one logical line as a byte slice valid until the
	// next call: the common case is a zero-copy view into the bufio
	// buffer; lines longer than the buffer and backslash continuations
	// accumulate into a reused scratch slice. Only lines that carry
	// content are ever materialized as strings, so blank space and
	// comments cost nothing per line.
	// line is the number of the first physical line of the logical line
	// last returned; read counts the physical lines consumed so far.
	br := bufio.NewReaderSize(r, 64<<10)
	var scratch []byte
	line, read := 0, 0
	readLine := func() ([]byte, error) {
		scratch = scratch[:0]
		joining := false
		line = read + 1
		for {
			chunk, err := br.ReadSlice('\n')
			if err == bufio.ErrBufferFull {
				scratch = append(scratch, chunk...)
				joining = true
				continue
			}
			if err != nil && err != io.EOF {
				return nil, err
			}
			atEOF := err == io.EOF
			if atEOF && len(chunk) == 0 && len(scratch) == 0 {
				return nil, io.EOF
			}
			if n := len(chunk); n > 0 && chunk[n-1] == '\n' {
				chunk = chunk[:n-1]
				read++
			}
			if n := len(chunk); n > 0 && chunk[n-1] == '\r' {
				chunk = chunk[:n-1]
			}
			// A trailing backslash joins the next line.
			if n := len(chunk); !atEOF && n > 0 && chunk[n-1] == '\\' {
				scratch = append(scratch, chunk[:n-1]...)
				scratch = append(scratch, ' ')
				joining = true
				continue
			}
			if joining {
				return append(scratch, chunk...), nil
			}
			return chunk, nil
		}
	}

	for {
		raw, err := readLine()
		if err == io.EOF {
			break
		}
		if err != nil {
			return nil, fmt.Errorf("blif: %w", err)
		}
		raw = bytes.TrimSpace(raw)
		if len(raw) == 0 || raw[0] == '#' {
			continue
		}
		fields := strings.Fields(string(raw))
		switch fields[0] {
		case ".model":
			if err := flush(); err != nil {
				return nil, err
			}
			if len(fields) > 1 {
				net.Name = fields[1]
			}
		case ".inputs":
			if err := flush(); err != nil {
				return nil, err
			}
			for _, in := range fields[1:] {
				if first, dup := defs[in]; dup {
					return nil, fmt.Errorf("blif: line %d: input %q declared twice (first at line %d)", line, in, first.line)
				}
				defs[in] = def{line: line, input: true}
				if err := define(in, net.AddInput(in)); err != nil {
					return nil, err
				}
			}
		case ".outputs":
			if err := flush(); err != nil {
				return nil, err
			}
			for _, out := range fields[1:] {
				if first, dup := outLine[out]; dup {
					return nil, fmt.Errorf("blif: line %d: output %q declared twice (first at line %d)", line, out, first)
				}
				outLine[out] = line
				outputs = append(outputs, out)
			}
		case ".names":
			if err := flush(); err != nil {
				return nil, err
			}
			if len(fields) < 2 {
				return nil, fmt.Errorf("blif: line %d: .names without a signal", line)
			}
			out := fields[len(fields)-1]
			if first, dup := defs[out]; dup {
				if first.input {
					return nil, fmt.Errorf("blif: line %d: .names redefines input %q (declared at line %d)", line, out, first.line)
				}
				return nil, fmt.Errorf("blif: line %d: signal %q defined twice (first at line %d)", line, out, first.line)
			}
			defs[out] = def{line: line}
			cur = &block{signals: fields[1:], outVal: '1'}
		case ".end":
			if err := flush(); err != nil {
				return nil, err
			}
		case ".latch", ".gate", ".subckt":
			return nil, fmt.Errorf("blif: unsupported construct %s", fields[0])
		default:
			if cur == nil {
				return nil, fmt.Errorf("blif: cover line outside .names: %q", raw)
			}
			if len(cur.signals) == 1 {
				// Constant driver: single field row.
				if len(fields) != 1 {
					return nil, fmt.Errorf("blif: bad constant row %q", raw)
				}
				cur.rows = append(cur.rows, "")
				cur.outVal = fields[0][0]
				continue
			}
			if len(fields) != 2 {
				return nil, fmt.Errorf("blif: bad cover row %q", raw)
			}
			cur.rows = append(cur.rows, fields[0])
			cur.outVal = fields[1][0]
		}
	}
	if err := flush(); err != nil {
		return nil, err
	}
	if pending > 0 {
		return nil, fmt.Errorf("blif: unresolved .names blocks (%d left)", pending)
	}

	for _, out := range outputs {
		sig, ok := env[out]
		if !ok {
			return nil, fmt.Errorf("blif: output %q never defined", out)
		}
		net.AddOutput(out, sig)
	}
	if err := net.Validate(); err != nil {
		return nil, err
	}
	return net, nil
}
