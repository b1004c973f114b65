// Command ext is a second module that imports the fixture the way the
// bench module imports optimus.
package main

import "fixture/internal/dead"

func main() { dead.ExtOnly() }
