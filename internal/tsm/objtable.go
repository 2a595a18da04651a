package tsm

// objChunk is the number of objects one objTable chunk holds.
const objChunk = 1024

// objTable is the server's object database: Object values addressed by
// ID. IDs are dense from 1 (Server.nextID), so object id lives at index
// id-1 of fixed-size chunks. A chunk never moves once allocated, so a
// *Object from get or put stays valid for the server's lifetime. The
// slot of an ID taken by a store that then failed keeps ID 0 and reads
// as absent.
type objTable struct {
	chunks [][]Object
}

// get returns the committed object with this ID, or nil.
func (t *objTable) get(id uint64) *Object {
	i := id - 1 // ID 0 wraps around and falls past the last chunk
	c := i / objChunk
	if c >= uint64(len(t.chunks)) {
		return nil
	}
	if o := &t.chunks[c][i%objChunk]; o.ID == id {
		return o
	}
	return nil
}

// put commits o under o.ID (> 0) and returns its slot.
func (t *objTable) put(o Object) *Object {
	i := o.ID - 1
	for uint64(len(t.chunks)) <= i/objChunk {
		t.chunks = append(t.chunks, make([]Object, objChunk))
	}
	p := &t.chunks[i/objChunk][i%objChunk]
	*p = o
	return p
}
