// Package lib plants one function or method per reachability case.
package lib

// ViaMain is live: main calls it.
func ViaMain() { viaLive() }

// viaLive is live only through ViaMain: liveness is transitive.
func viaLive() {}

// T carries the method cases.
type T struct{}

// M is live: main calls it.
func (T) M() { viaMethod() }

// viaMethod is live only through M's body.
func viaMethod() {}

// answer's initializer is a root.
var answer = viaVar()

// viaVar is live only through answer's initializer.
func viaVar() int { return 42 }

// Allowed has no caller; the allowlist keeps it.
func Allowed() {}

// Answer reads answer so the var is used.
func (T) Answer() int { return answer }

// OnlyTest is dead: only lib_test.go calls it.
func OnlyTest() int {
	return fromDead()
}

// fromDead is dead: only the dead OnlyTest calls it.
func fromDead() int { return 1 }

// TestOnly is a dead method: only lib_test.go calls it.
func (T) TestOnly() int { return 2 }

// Asserted is live: the anonymous interface in Has's type assertion names it.
func (T) Asserted() {}

// Has reports whether x has an Asserted method.
func Has(x any) bool {
	_, ok := x.(interface{ Asserted() })
	return ok
}

// String is live: Print's fmt.Print reaches it through fmt.Stringer.
func (T) String() string { return "T" }

// Wide is a dead method, and so is wrapFactor, which only Wide calls.
func (T) Wide() int { return 2 * wrapFactor() }

// wrapFactor is dead: only the dead Wide calls it.
func wrapFactor() int { return 2 }

// Box is generic: its method is named through an instantiation.
type Box[E any] struct{ v E }

// Get is live: Unbox calls Box[int].Get, whose origin it is.
func (b Box[E]) Get() E { return b.v }

// Unbox unwraps a boxed int.
func Unbox() int { return Box[int]{7}.Get() }
