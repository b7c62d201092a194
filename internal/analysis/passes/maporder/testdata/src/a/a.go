// Package a is maporder golden input: map ranges whose bodies are and
// are not iteration-order sensitive.
package a

import (
	"fmt"
	"slices"
	"sort"
)

func emit(string) {}

func callsOut(m map[string]int) {
	for k := range m { // want `calls out in map order`
		emit(k)
	}
}

func errorPick(m map[string]int) error {
	for k, v := range m { // want `calls out in map order`
		if v < 0 {
			return fmt.Errorf("bad %s", k)
		}
	}
	return nil
}

func appendNoSort(m map[string]int) []string {
	var keys []string
	for k := range m { // want `appends to keys in map order`
		keys = append(keys, k)
	}
	return keys
}

// appendSorted is the sanctioned collect-then-sort pattern.
func appendSorted(m map[string]int) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}

func appendSlicesSorted(m map[string]int) []string {
	var keys []string
	for k := range m {
		keys = append(keys, k)
	}
	slices.Sort(keys)
	return keys
}

// Only a sorting call proves the slice sorted: these read it, still
// in map order.
func appendContains(m map[string]int, x string) ([]string, bool) {
	var keys []string
	for k := range m { // want `appends to keys in map order`
		keys = append(keys, k)
	}
	return keys, slices.Contains(keys, x)
}

func appendClone(m map[string]int) []string {
	var keys []string
	for k := range m { // want `appends to keys in map order`
		keys = append(keys, k)
	}
	return slices.Clone(keys)
}

func appendSearch(m map[string]int, x string) ([]string, int) {
	var keys []string
	for k := range m { // want `appends to keys in map order`
		keys = append(keys, k)
	}
	return keys, sort.SearchStrings(keys, x)
}

func floatAccumulate(m map[string]float64) float64 {
	var sum float64
	for _, v := range m { // want `accumulates into a float/string in map order`
		sum += v
	}
	return sum
}

// intAccumulate commutes; integer sums are order-insensitive.
func intAccumulate(m map[string]int) int {
	var n int
	for _, v := range m {
		n += v
	}
	return n
}

func stringAccumulate(m map[string]string) string {
	var all string
	for _, v := range m { // want `accumulates into a float/string in map order`
		all += v
	}
	return all
}

func channelSend(m map[string]int, ch chan string) {
	for k := range m { // want `sends on a channel in map order`
		ch <- k
	}
}

// mapToMap re-keys deterministically: each write lands at its own key.
func mapToMap(dst, src map[string]int) {
	for k, v := range src {
		dst[k] = v
	}
}

// clearAll deletes from the ranged map; order cannot be observed.
func clearAll(m map[string]int) {
	for k := range m {
		delete(m, k)
	}
}

// localCollect appends to a slice that dies inside the loop body, so
// the map order never escapes.
func localCollect(m map[string][]int) int {
	n := 0
	for _, vs := range m {
		var grown []int
		grown = append(grown, vs...)
		n += len(grown)
	}
	return n
}

// sliceRange is not a map range at all.
func sliceRange(xs []string) {
	for _, x := range xs {
		emit(x)
	}
}

func allowed(m map[string]int) {
	//detlint:allow maporder -- golden test: diagnostic order of this debug dump is immaterial
	for k := range m {
		emit(k)
	}
}

// firstLost is census mutant O1: the first wanted peer that is lost,
// taken from a map, is whichever the map order visits first.
func firstLost(lost map[int]error, want []int) error {
	for peer, err := range lost { // want `returns its first match in map order`
		for _, w := range want {
			if w == peer {
				return err
			}
		}
	}
	return nil
}

func firstKeyVia(m map[string]int) string {
	for k, v := range m { // want `returns its first match in map order`
		name := k
		if v > 0 {
			return name
		}
	}
	return ""
}

// anyNegative returns the same whichever element matches first.
func anyNegative(m map[string]int) bool {
	for _, v := range m {
		if v < 0 {
			return true
		}
	}
	return false
}

// A return in a function literal is the literal's own.
func closures(m map[string]int) map[string]func() int {
	fs := make(map[string]func() int, len(m))
	for k, v := range m {
		fs[k] = func() int { return v }
	}
	return fs
}
