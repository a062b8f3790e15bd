// Package api is importable from outside the module, so its exported
// functions are roots; its unexported ones are not.
package api

import "app/internal/lib"

// Exported is public API: a root even though nothing here calls it.
func Exported() int { return lib.FromAPI() }

func unexported() {} // want `api.unexported is unreachable`
