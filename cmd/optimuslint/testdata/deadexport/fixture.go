// Package fixture is the API root of the dead-export fixture module.
package fixture

import (
	"fmt"

	"fixture/internal/dead"
	"fixture/internal/mid"
)

// Options reaches api.Options through two aliases, and api.Reached
// through its field.
type Options = mid.Options

// Run calls the live surface of package dead.
func Run() string {
	var h dead.Holder
	var n namer = h
	return n.Name() + fmt.Sprint(h) + dead.Used()
}

// namer is an interface the program declares: Holder.Name is called
// through it, which TypesInfo.Uses does not attribute to the method.
type namer interface{ Name() string }
