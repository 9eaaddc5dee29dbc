package memsys

import "testing"

// TestStoreSnapshotIsolation pins the copy-on-write contract: an Image
// captured by Snapshot never changes, no matter what the source store,
// a store built from the image, or a sibling clone writes afterwards.
func TestStoreSnapshotIsolation(t *testing.T) {
	s := NewStore()
	s.Write(5, 100)
	s.Write(PageWords+3, 200) // second page
	img := s.Snapshot()

	clone := NewStoreFrom(img)
	if got := clone.Read(5); got != 100 {
		t.Fatalf("clone.Read(5) = %d, want 100", got)
	}
	if got := clone.Read(PageWords + 3); got != 200 {
		t.Fatalf("clone.Read(page2) = %d, want 200", got)
	}
	if got := clone.Read(7); got != Fill(7) {
		t.Fatalf("clone.Read(7) = %d, want Fill", got)
	}

	// Mutate-after-clone: writes on either side must not leak across.
	s.Write(5, 111)
	clone.Write(5, 222)
	clone2 := NewStoreFrom(img)
	if got := s.Read(5); got != 111 {
		t.Fatalf("source saw %d after its own write, want 111", got)
	}
	if got := clone.Read(5); got != 222 {
		t.Fatalf("clone saw %d after its own write, want 222", got)
	}
	if got := clone2.Read(5); got != 100 {
		t.Fatalf("fresh clone saw %d, image mutated (want 100)", got)
	}
	// Unwritten words of a shared page stay shared and correct.
	if got := clone.Read(PageWords + 3); got != 200 {
		t.Fatalf("clone lost untouched word: %d, want 200", got)
	}
}

// TestStoreRestore pins the O(1) rewind: Restore drops everything
// written since the image (including whole new pages), and Restore(nil)
// rewinds to the cold Fill pattern.
func TestStoreRestore(t *testing.T) {
	s := NewStore()
	s.Write(9, 1)
	img := s.Snapshot()
	s.Write(9, 2)
	s.Write(3*PageWords, 3)
	s.Restore(img)
	if got := s.Read(9); got != 1 {
		t.Fatalf("after Restore, Read(9) = %d, want 1", got)
	}
	if got := s.Read(3 * PageWords); got != Fill(3*PageWords) {
		t.Fatalf("after Restore, new page survived: %d, want Fill", got)
	}
	s.Restore(nil)
	if got := s.Read(9); got != Fill(9) {
		t.Fatalf("after cold Restore, Read(9) = %d, want Fill", got)
	}
}

// TestStoreSnapshotAfterSnapshot pins that repeated snapshots chain:
// each freeze layers over the last, and an old image stays valid.
func TestStoreSnapshotAfterSnapshot(t *testing.T) {
	s := NewStore()
	s.Write(0, 10)
	img1 := s.Snapshot()
	s.Write(0, 20)
	s.Write(1, 21)
	img2 := s.Snapshot()
	s.Write(0, 30)

	for _, tc := range []struct {
		img  *Image
		a, v uint32
	}{
		{img1, 0, 10}, {img1, 1, Fill(1)},
		{img2, 0, 20}, {img2, 1, 21},
	} {
		if got := NewStoreFrom(tc.img).Read(tc.a); got != tc.v {
			t.Fatalf("image read at %d = %d, want %d", tc.a, got, tc.v)
		}
	}
	if got := s.Read(0); got != 30 {
		t.Fatalf("store lost its own write: %d, want 30", got)
	}
}
