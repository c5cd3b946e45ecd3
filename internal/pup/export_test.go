package pup

// ElementWalk runs f with the wire view (view.go) unavailable, so every
// bulk field takes the per-element fallback walk — what a big-endian host
// runs. Tests use it to hold the memmove path to the walk's bytes on
// programs they cannot re-plumb (the internal/apps ports). Not safe while
// another goroutine is pupping.
func ElementWalk(f func()) {
	saved := hostLE
	hostLE = false
	defer func() { hostLE = saved }()
	f()
}
