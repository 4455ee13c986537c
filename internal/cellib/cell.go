// Package cellib models the technology library that mapped netlists are
// built from: combinational cells with an area, a Boolean function over
// their input pins, per-pin input capacitances, and the two parameters of
// the paper's linear delay model D = tau + C*R (intrinsic delay and drive
// resistance).
//
// Libraries can be parsed from a genlib-subset text format or taken from
// the built-in Lib2 library, which is modelled on the MCNC lib2.genlib
// library used by the paper's experiments.
package cellib

import (
	"fmt"

	"powder/internal/logic"
)

// Pin is one input pin of a cell.
type Pin struct {
	Name string
	// Cap is the capacitive load the pin presents to its driver, in the
	// library's capacitance unit (the same unit Eq. 1 of the paper sums).
	Cap float64
}

// Cell is a combinational library cell. Cells are immutable once built.
type Cell struct {
	Name string
	Area float64
	// Pins lists the input pins in function-variable order: pin i is
	// variable i of Function.
	Pins []Pin
	// Output is the name of the output pin.
	Output string
	// Function is the cell's logic function over pin indices.
	Function *logic.Expr
	// TT is the function's truth table over len(Pins) variables; it is the
	// functional fingerprint used by matching.
	TT logic.TT
	// Program is Function compiled for word-parallel simulation.
	Program *logic.Program
	// Intrinsic is tau in the delay model D = tau + C*R, in time units.
	Intrinsic float64
	// Drive is R in the delay model, in time units per capacitance unit.
	Drive float64
	// MaxLoad is the largest load the cell may drive; zero means unlimited.
	MaxLoad float64
}

// NewCell validates and constructs a cell. The function must reference only
// the given pins and actually depend on each of them.
func NewCell(name string, area float64, pins []Pin, output string, fn *logic.Expr, intrinsic, drive, maxLoad float64) (*Cell, error) {
	if name == "" {
		return nil, fmt.Errorf("cellib: cell needs a name")
	}
	if area < 0 || intrinsic < 0 || drive < 0 || maxLoad < 0 {
		return nil, fmt.Errorf("cellib: cell %s has a negative parameter", name)
	}
	if len(pins) > 6 {
		return nil, fmt.Errorf("cellib: cell %s has %d pins; at most 6 supported", name, len(pins))
	}
	seen := make(map[string]bool, len(pins))
	for _, p := range pins {
		if p.Name == "" {
			return nil, fmt.Errorf("cellib: cell %s has an unnamed pin", name)
		}
		if seen[p.Name] {
			return nil, fmt.Errorf("cellib: cell %s repeats pin %s", name, p.Name)
		}
		seen[p.Name] = true
		if p.Cap < 0 {
			return nil, fmt.Errorf("cellib: cell %s pin %s has negative capacitance", name, p.Name)
		}
	}
	if fn.MaxVar() >= len(pins) {
		return nil, fmt.Errorf("cellib: cell %s function references pin %d but has only %d pins",
			name, fn.MaxVar(), len(pins))
	}
	tt := logic.TTFromExpr(fn, len(pins))
	for i := range pins {
		if !tt.DependsOn(i) {
			return nil, fmt.Errorf("cellib: cell %s does not depend on pin %s", name, pins[i].Name)
		}
	}
	return &Cell{
		Name:      name,
		Area:      area,
		Pins:      append([]Pin(nil), pins...),
		Output:    output,
		Function:  fn,
		TT:        tt,
		Program:   logic.Compile(fn, len(pins)),
		Intrinsic: intrinsic,
		Drive:     drive,
		MaxLoad:   maxLoad,
	}, nil
}

// NumPins returns the number of input pins.
func (c *Cell) NumPins() int { return len(c.Pins) }

// PinIndex returns the index of the named pin, or -1.
func (c *Cell) PinIndex(name string) int {
	for i, p := range c.Pins {
		if p.Name == name {
			return i
		}
	}
	return -1
}

// Delay returns the gate delay under the linear model for the given output
// load: D = Intrinsic + load*Drive.
func (c *Cell) Delay(load float64) float64 { return c.Intrinsic + load*c.Drive }

// IsInverter reports whether the cell computes NOT of its single input.
func (c *Cell) IsInverter() bool {
	return len(c.Pins) == 1 && c.TT.Equal(invTT)
}

// IsBuffer reports whether the cell computes the identity of its single input.
func (c *Cell) IsBuffer() bool {
	return len(c.Pins) == 1 && c.TT.Equal(bufTT)
}

var (
	invTT = logic.TTFromExpr(logic.Not(logic.Var(0)), 1)
	bufTT = logic.TTFromExpr(logic.Var(0), 1)
)

// String returns "name(area)".
func (c *Cell) String() string { return fmt.Sprintf("%s(%.0f)", c.Name, c.Area) }
