// Package lib plants one package-level function per reachability case.
package lib

// ViaMain is live: main calls it.
func ViaMain() { viaLive() }

// viaLive is live only through ViaMain: liveness is transitive.
func viaLive() {}

// T's method body is a root.
type T struct{}

// M is a method and no one calls it; its body is scanned all the same.
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
