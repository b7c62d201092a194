// Package a is maporder golden input: every range over a map is a
// finding, whatever its body does, and ranging over the sorted keys is
// not.
package a

import (
	"errors"
	"fmt"
	"maps"
	"slices"
	"sort"
	"strings"
)

func emit(string) {}

func callsOut(m map[string]int) {
	for k := range m { // want `range over a map: iteration order is nondeterministic; range over slices\.Sorted\(maps\.Keys\(m\)\)`
		emit(k)
	}
}

func errorPick(m map[string]int) error {
	for k, v := range m { // want `range over a map`
		if v < 0 {
			return fmt.Errorf("bad %s", k)
		}
	}
	return nil
}

func appendNoSort(m map[string]int) []string {
	var keys []string
	for k := range m { // want `range over a map`
		keys = append(keys, k)
	}
	return keys
}

// appendSorted and appendSlicesSorted collect the keys, then sort
// them. The loop still ranges over the map; sortedKeys is the form.
func appendSorted(m map[string]int) []string {
	keys := make([]string, 0, len(m))
	for k := range m { // want `range over a map`
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}

func appendSlicesSorted(m map[string]int) []string {
	var keys []string
	for k := range m { // want `range over a map`
		keys = append(keys, k)
	}
	slices.Sort(keys)
	return keys
}

func appendContains(m map[string]int, x string) ([]string, bool) {
	var keys []string
	for k := range m { // want `range over a map`
		keys = append(keys, k)
	}
	return keys, slices.Contains(keys, x)
}

func appendClone(m map[string]int) []string {
	var keys []string
	for k := range m { // want `range over a map`
		keys = append(keys, k)
	}
	return slices.Clone(keys)
}

func appendSearch(m map[string]int, x string) ([]string, int) {
	var keys []string
	for k := range m { // want `range over a map`
		keys = append(keys, k)
	}
	return keys, sort.SearchStrings(keys, x)
}

func floatAccumulate(m map[string]float64) float64 {
	var sum float64
	for _, v := range m { // want `range over a map`
		sum += v
	}
	return sum
}

// An integer sum commutes, but the loop is a map range all the same.
func intAccumulate(m map[string]int) int {
	var n int
	for _, v := range m { // want `range over a map`
		n += v
	}
	return n
}

func stringAccumulate(m map[string]string) string {
	var all string
	for _, v := range m { // want `range over a map`
		all += v
	}
	return all
}

func channelSend(m map[string]int, ch chan string) {
	for k := range m { // want `range over a map`
		ch <- k
	}
}

func mapToMap(dst, src map[string]int) {
	for k, v := range src { // want `range over a map`
		dst[k] = v
	}
}

// clearAll only deletes from the ranged map, so its order cannot be
// observed; a tree loop like it carries a directive (allowed below).
func clearAll(m map[string]int) {
	for k := range m { // want `range over a map`
		delete(m, k)
	}
}

func localCollect(m map[string][]int) int {
	n := 0
	for _, vs := range m { // want `range over a map`
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

// sortedKeys is the form the pass asks for.
func sortedKeys(m map[string]int) {
	for _, k := range slices.Sorted(maps.Keys(m)) {
		emit(k)
	}
}

// The maps iterators visit in map order too.
func iterators(m map[string]int) {
	for k, v := range maps.All(m) { // want `range over a map`
		emit(k + fmt.Sprint(v))
	}
	for k := range maps.Keys(m) { // want `range over a map`
		emit(k)
	}
	for v := range maps.Values(m) { // want `range over a map`
		emit(fmt.Sprint(v))
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
	for peer, err := range lost { // want `range over a map`
		for _, w := range want {
			if w == peer {
				return err
			}
		}
	}
	return nil
}

// reclaimOrder is census mutant O2: the jobs to migrate, appended in
// the order a map of owners visits them.
func reclaimOrder(byOwner map[string][]int) []int {
	var order []int
	for _, jobs := range byOwner { // want `range over a map`
		order = append(order, jobs...)
	}
	return order
}

// fairShare is census mutant O3: a float sum over a map of tenants.
func fairShare(servedByUser map[string]float64, mine float64) float64 {
	total := 0.0
	for _, s := range servedByUser { // want `range over a map`
		total += s
	}
	return mine / (1 + total)
}

// busySeconds is census mutant O4: host-seconds summed per job in a
// map, then over the map.
func busySeconds(spans [][2]float64, jobOf []string) float64 {
	perJob := make(map[string]float64)
	for i, s := range spans {
		perJob[jobOf[i]] += s[1] - s[0]
	}
	busy := 0.0
	for _, sec := range perJob { // want `range over a map`
		busy += sec
	}
	return busy
}

// repeated is census mutant O5: one error naming every repeated
// cohort, its text built over a count map.
func repeated(names []string) error {
	count := make(map[string]int)
	for _, n := range names {
		count[n]++
	}
	var dup []string
	for n, c := range count { // want `range over a map`
		if c > 1 {
			dup = append(dup, n)
		}
	}
	if len(dup) > 0 {
		return errors.New("repeated cohorts: " + strings.Join(dup, ", "))
	}
	return nil
}

func firstKeyVia(m map[string]int) string {
	for k, v := range m { // want `range over a map`
		name := k
		if v > 0 {
			return name
		}
	}
	return ""
}

func anyNegative(m map[string]int) bool {
	for _, v := range m { // want `range over a map`
		if v < 0 {
			return true
		}
	}
	return false
}

func closures(m map[string]int) map[string]func() int {
	fs := make(map[string]func() int, len(m))
	for k, v := range m { // want `range over a map`
		fs[k] = func() int { return v }
	}
	return fs
}
