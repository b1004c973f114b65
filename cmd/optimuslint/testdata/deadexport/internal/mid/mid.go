// Package mid is the middle link of the alias chain.
package mid

import "fixture/internal/api"

// Options aliases api.Options.
type Options = api.Options
