// Package lib holds one case per rule of the walker.
package lib

// Dead is called by nothing.
func Dead() {}

// ValueOnly is used as a value, never called directly.
func ValueOnly() int { return 1 }

// ForAPI is reached from the root package's export.
func ForAPI() int { return 2 }

// BenchOnly is reached from benchmark/ only.
func BenchOnly() {}

// Shape is a module interface whose Area alone is called.
type Shape interface {
	Area() float64
	Perimeter() float64
}

type Square struct{}

func (Square) Area() float64      { return 1 }
func (Square) Perimeter() float64 { return 4 }

// Circle implements Shape, but no live code names it.
type Circle struct{}

func (Circle) Area() float64 { return 3 }

// Tile is named by live code and has an Area, but not Shape's: its Area
// stays dead though Shape.Area is called.
type Tile struct{}

func (Tile) Area() int { return 1 }

// Name reaches String through fmt.Stringer.
type Name string

func (n Name) String() string { return string(n) }

// ByLen reaches Len, Less and Swap through sort.Interface.
type ByLen []string

func (b ByLen) Len() int           { return len(b) }
func (b ByLen) Less(i, j int) bool { return len(b[i]) < len(b[j]) }
func (b ByLen) Swap(i, j int)      { b[i], b[j] = b[j], b[i] }

// Err reaches Error through error, and Unwrap through errors.Is.
type Err struct{}

func (*Err) Error() string { return "err" }
func (*Err) Unwrap() error { return nil }

// Stack's Push is called on Stack[int]; Pop is not.
type Stack[T any] struct{ items []T }

func (s *Stack[T]) Push(v T) { s.items = append(s.items, v) }

func (s *Stack[T]) Pop() T {
	v := s.items[len(s.items)-1]
	s.items = s.items[:len(s.items)-1]
	return v
}

// fromVar is named only by a package-level var initializer.
var table = map[string]func() int{"a": fromVar}

func fromVar() int { return 3 }

// fromInit is called only by init.
func init() { fromInit() }

func fromInit() {}

// onlyElsewhere is called only from a file the build context excludes.
func onlyElsewhere() {}
