// Package a is the surface ratchet's fixture: exactly one exported
// function used only in this package (Helper) and one option field that
// no caller sets (Options.Unset). Everything else here is reached from
// package b in a way the scan must count as a use.
package a

// Options is an option struct; b sets Used by key and Assigned by
// assignment, and leaves Unset alone.
type Options struct {
	Used     int
	Assigned int
	Unset    int
}

// Result is reached only by inference, through Run's signature.
type Result struct{ N int }

// Run is used from b. Filling in Unset's default does not set it.
func Run(o Options) Result {
	if o.Unset <= 0 {
		o.Unset = 7
	}
	return Result{N: Helper(o.Used + o.Assigned + o.Unset)}
}

// Helper is exported but used only in this package.
func Helper(n int) int { return n + 1 }
