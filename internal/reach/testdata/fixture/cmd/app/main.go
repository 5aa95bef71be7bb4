package main

import (
	"errors"
	"fmt"
	"sort"

	"fixture/lib"
)

func main() {
	// A func used only as a value.
	f := lib.ValueOnly
	fmt.Println(f())

	// A method reached through a module interface: Area is called,
	// Perimeter is not, and Circle is never named.
	var s lib.Shape = lib.Square{}
	fmt.Println(s.Area(), lib.Tile{})

	// Methods reached through standard-library interfaces.
	fmt.Println(lib.Name("x"))
	sort.Sort(lib.ByLen{"bb", "a"})
	var err error = &lib.Err{}
	fmt.Println(errors.Is(err, nil))

	// A generic method reached through an instantiation.
	var st lib.Stack[int]
	st.Push(1)
}
