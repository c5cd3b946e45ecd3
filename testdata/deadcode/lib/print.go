package lib

import "fmt"

// Print prints a T: the fixture's one call into fmt.
func Print() { fmt.Print(T{}) }
