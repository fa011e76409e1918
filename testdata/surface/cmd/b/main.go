// Command b is the caller in the surface ratchet's fixture.
package main

import "surfacefix/internal/a"

func main() {
	o := a.Options{Used: 1}
	o.Assigned = 2
	r := a.Run(o)
	println(r.N)
}
