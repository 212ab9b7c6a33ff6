// The detlint fixture: wall-clock reads, global math/rand draws,
// imports of either, multi-case selects, and order-sensitive map
// iteration are flagged; the sanctioned patterns (sorted-key
// extraction, keyed map writes, integer accumulation, seeded rand
// constructors, select with a default) stay silent. The test registers
// this package path as a deterministic package.
package detlint

import (
	"fmt"
	"math/rand" // want `deterministic package imports "math/rand", the global random stream`
	"os"
	"sort"
	"time" // want `deterministic package imports "time", the wall clock`
)

func wallClock() time.Duration {
	t0 := time.Now()      // want `time.Now reads the wall clock`
	return time.Since(t0) // want `time.Since reads the wall clock`
}

func allowedClock() time.Time {
	//gossiplint:allow detlint fixture proves the suppression directive works
	return time.Now()
}

func globalRand() int {
	return rand.Intn(10) // want `draws from the global math/rand stream`
}

func seededRand() *rand.Rand {
	return rand.New(rand.NewSource(1)) // explicit seed: fine
}

func multiSelect(a, b chan int) int {
	select { // want `select with 2 communication cases`
	case v := <-a:
		return v
	case v := <-b:
		return v
	}
}

func selectWithDefault(a chan int) int {
	select {
	case v := <-a:
		return v
	default:
		return 0
	}
}

func sortedKeys(m map[string]int) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k) // the sanctioned extraction step
	}
	sort.Strings(keys)
	return keys
}

func valueCollect(m map[string]int) []int {
	var out []int
	for _, v := range m {
		out = append(out, v) // want `write to out inside range over map`
	}
	return out
}

func keyedRewrite(m map[string]int) map[string]int {
	out := make(map[string]int, len(m))
	for k, v := range m {
		out[k] = v + 1 // keyed writes are order-free
	}
	return out
}

func intAccumulate(m map[string]int) (int, int) {
	n, s := 0, 0
	for _, v := range m {
		n++    // exactly commutative
		s += v // exactly commutative
	}
	return n, s
}

func floatSum(m map[string]float64) float64 {
	s := 0.0
	for _, v := range m {
		s += v // want `order-sensitive accumulation into s`
	}
	return s
}

func lastWriter(m map[string]int) string {
	var last string
	for k := range m {
		last = k // want `write to last inside range over map`
	}
	return last
}

func printer(m map[string]int) {
	for k, v := range m {
		fmt.Println(k, v) // want `fmt.Println inside range over map`
	}
}

func sinkWriter(m map[string]int, w *os.File) {
	for k := range m {
		w.WriteString(k) // want `w.WriteString inside range over map`
	}
}

func send(m map[string]int, ch chan<- int) {
	for _, v := range m {
		ch <- v // want `channel send inside range over map`
	}
}

func pickAny(m map[string]int) string {
	for k := range m {
		return k // want `return of a loop variable`
	}
	return ""
}

func allowedRange(m map[string]int) []int {
	var out []int
	for _, v := range m {
		//gossiplint:allow detlint fixture: order-insensitive because out is sorted below
		out = append(out, v)
	}
	sort.Ints(out)
	return out
}
