package stats

import "fmt"

// StateAccount integrates time (and, with a power assignment, energy)
// across a set of named states. The disk model uses one per disk: each
// state change closes the previous interval at the current power draw.
// Totals live in a small slot table indexed by first appearance of the
// state name, so the per-transition path hashes nothing and allocates
// nothing once every state has been seen.
type StateAccount struct {
	last      float64 // time of the last transition
	cur       int     // slot of the current state
	power     float64 // watts drawn in the current state
	slots     []stateSlot
	totEnergy float64
}

// stateSlot holds one named state's totals. A state is reported by
// DurationByState once time has been integrated in it, and by
// EnergyByState once time has been integrated in it or a lump of energy
// has been charged to it.
type stateSlot struct {
	name     string
	duration float64 // seconds
	energy   float64 // joules
	entries  uint64
	accrued  bool
	charged  bool
}

// NewStateAccount starts accounting at time t0 in the given state drawing
// `power` watts.
func NewStateAccount(t0 float64, state string, power float64) *StateAccount {
	a := &StateAccount{last: t0, power: power, slots: make([]stateSlot, 0, 8)}
	a.cur = a.slot(state)
	a.slots[a.cur].entries = 1
	return a
}

// slot returns the index of the named state, adding it on first use.
func (a *StateAccount) slot(state string) int {
	for i := range a.slots {
		if a.slots[i].name == state {
			return i
		}
	}
	a.slots = append(a.slots, stateSlot{name: state})
	return len(a.slots) - 1
}

// Transition closes the current interval at time t and enters a new state
// with a new power draw. t must be >= the previous transition time.
func (a *StateAccount) Transition(t float64, state string, power float64) {
	a.accrue(t)
	a.cur = a.slot(state)
	a.power = power
	a.slots[a.cur].entries++
}

// SetPower changes the power draw without changing the named state (e.g. a
// disk moving between idle and active power at the same RPM).
func (a *StateAccount) SetPower(t float64, power float64) {
	a.accrue(t)
	a.power = power
}

func (a *StateAccount) accrue(t float64) {
	if t < a.last {
		panic(fmt.Sprintf("stats: state account time went backwards: %v < %v", t, a.last))
	}
	dt := t - a.last
	s := &a.slots[a.cur]
	s.duration += dt
	e := a.power * dt
	s.energy += e
	s.accrued = true
	a.totEnergy += e
	a.last = t
}

// AddEnergy charges a lump of energy (joules) to a named state without
// advancing time — used for spin-up/spin-down transition energies which the
// disk specs give as totals rather than power curves.
func (a *StateAccount) AddEnergy(state string, joules float64) {
	if joules < 0 {
		panic(fmt.Sprintf("stats: negative lump energy %v", joules))
	}
	s := &a.slots[a.slot(state)]
	s.energy += joules
	s.charged = true
	a.totEnergy += joules
}

// Close accrues up to time t without changing state; call once at the end
// of a run before reading totals.
func (a *StateAccount) Close(t float64) { a.accrue(t) }

// EnergyAt returns the joules the account would report if closed at time
// t, without mutating anything. Snapshot capture uses it: Close splits
// the open interval's floating-point accrual, which would perturb the
// final totals by an ulp, while EnergyAt is a pure read.
func (a *StateAccount) EnergyAt(t float64) float64 {
	if t < a.last {
		panic(fmt.Sprintf("stats: EnergyAt(%v) before last accrual %v", t, a.last))
	}
	return a.totEnergy + a.power*(t-a.last)
}

// LastAccrual returns the time up to which the account has integrated.
func (a *StateAccount) LastAccrual() float64 { return a.last }

// State returns the current state name.
func (a *StateAccount) State() string { return a.slots[a.cur].name }

// Power returns the current power draw in watts.
func (a *StateAccount) Power() float64 { return a.power }

// TotalEnergy returns all joules accrued so far (excluding the open
// interval; call Close first for end-of-run totals).
func (a *StateAccount) TotalEnergy() float64 { return a.totEnergy }

// EnergyByState returns the joules per state name, as a fresh map.
func (a *StateAccount) EnergyByState() map[string]float64 {
	out := make(map[string]float64, len(a.slots))
	for _, s := range a.slots {
		if s.accrued || s.charged {
			out[s.name] = s.energy
		}
	}
	return out
}

// DurationByState returns the seconds per state name, as a fresh map.
func (a *StateAccount) DurationByState() map[string]float64 {
	out := make(map[string]float64, len(a.slots))
	for _, s := range a.slots {
		if s.accrued {
			out[s.name] = s.duration
		}
	}
	return out
}

// Entries returns how many times the named state was entered.
func (a *StateAccount) Entries(state string) uint64 {
	for _, s := range a.slots {
		if s.name == state {
			return s.entries
		}
	}
	return 0
}
