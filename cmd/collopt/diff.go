package main

import (
	"fmt"
	"strings"
)

// edit is one line of an edit script: kept (' '), deleted ('-') or
// inserted ('+').
type edit struct {
	op   byte
	text string
}

// unifiedDiff renders a unified diff (3 context lines) between a and b,
// labeled aName/bName. Empty when the inputs are equal.
func unifiedDiff(aName, bName string, a, b []byte) string {
	edits := editScript(splitLines(a), splitLines(b))
	if edits == nil {
		return ""
	}

	// Group into hunks with up to 3 context lines on each side.
	const ctx = 3
	var sb strings.Builder
	fmt.Fprintf(&sb, "--- %s\n+++ %s\n", aName, bName)
	aLine, bLine := 1, 1
	i := 0
	for i < len(edits) {
		// Skip to the next change.
		for i < len(edits) && edits[i].op == ' ' {
			aLine++
			bLine++
			i++
		}
		if i == len(edits) {
			break
		}
		// Hunk start: back up over context.
		start := i
		lead := 0
		for start > 0 && lead < ctx && edits[start-1].op == ' ' {
			start--
			lead++
		}
		hunkA, hunkB := aLine-lead, bLine-lead
		// Extend through changes, absorbing gaps of <= 2*ctx context lines.
		end := i
		for j := i; j < len(edits); {
			if edits[j].op != ' ' {
				end = j + 1
				j++
				continue
			}
			gap := 0
			for j+gap < len(edits) && edits[j+gap].op == ' ' {
				gap++
			}
			if j+gap == len(edits) || gap > 2*ctx {
				break
			}
			j += gap
		}
		// Trailing context.
		stop := end
		for trail := 0; stop < len(edits) && trail < ctx && edits[stop].op == ' '; trail++ {
			stop++
		}
		var aCount, bCount int
		var body strings.Builder
		for _, e := range edits[start:stop] {
			body.WriteByte(e.op)
			body.WriteString(e.text)
			body.WriteByte('\n')
			switch e.op {
			case ' ':
				aCount++
				bCount++
			case '-':
				aCount++
			case '+':
				bCount++
			}
		}
		fmt.Fprintf(&sb, "@@ -%d,%d +%d,%d @@\n%s", hunkA, aCount, hunkB, bCount, body.String())
		// Advance line counters over the consumed edits.
		for _, e := range edits[i:stop] {
			switch e.op {
			case ' ':
				aLine++
				bLine++
			case '-':
				aLine++
			case '+':
				bLine++
			}
		}
		i = stop
	}
	return sb.String()
}

// editScript returns the edit script from al to bl, or nil when they are
// equal. It walks forward keeping a line both sides start with, else
// deleting al's line when that keeps the script shortest, else inserting
// bl's: the walk over a table of LCS lengths, without the table. The walk
// only asks how far a position is from the end, which Myers' O(ND) search
// run backwards from the end answers. For D deleted and inserted lines the
// search takes O((n+m)·D) time and O(D²) memory, where the table takes
// O(n·m) of both: a rewrite that touches a few lines of a long file stays
// small, and only files with next to nothing in common cost as much.
func editScript(al, bl []string) []edit {
	n, m := len(al), len(bl)
	// Position (i, j) lies x = n-i lines of al and y = m-j lines of bl
	// before the end, on diagonal k = x-y. far[d][(k+d)/2] is the largest x
	// that d deletions and insertions reach on diagonal k from the end: the
	// positions on that diagonal within d edits of the end are those with x
	// up to it.
	var far [][]int
	for done := false; !done; {
		d := len(far)
		v := make([]int, d+1)
		for c := range v {
			k := 2*c - d
			x := 0
			switch {
			case d == 0:
			case c == 0: // k == -d: an insertion from diagonal k+1
				x = far[d-1][0]
			case c == d: // k == d: a deletion from diagonal k-1
				x = far[d-1][d-1] + 1
			default:
				x = max(far[d-1][c-1]+1, far[d-1][c])
			}
			y := x - k
			for x < n && y < m && al[n-1-x] == bl[m-1-y] {
				x, y = x+1, y+1
			}
			v[c] = x
			done = done || x >= n && y >= m
		}
		far = append(far, v)
	}
	left := len(far) - 1 // edits from (0, 0) to the end
	if left == 0 {
		return nil
	}
	within := func(i, j, d int) bool {
		x, y := n-i, m-j
		k := x - y
		return -d <= k && k <= d && x <= far[d][(k+d)/2]
	}

	edits := make([]edit, 0, (n+m+left)/2)
	for i, j := 0, 0; i < n || j < m; {
		switch {
		case i < n && j < m && al[i] == bl[j]:
			edits = append(edits, edit{' ', al[i]})
			i++
			j++
		case i < n && (j == m || within(i+1, j, left-1)):
			edits = append(edits, edit{'-', al[i]})
			i++
			left--
		default:
			edits = append(edits, edit{'+', bl[j]})
			j++
			left--
		}
	}
	return edits
}

func splitLines(b []byte) []string {
	s := string(b)
	s = strings.TrimSuffix(s, "\n")
	if s == "" {
		return nil
	}
	return strings.Split(s, "\n")
}
