// Quickstart: create a database, define metadata, run transactions, and
// query — the minimal GDI program.
package main

import (
	"errors"
	"fmt"
	"log"

	gdi "github.com/gdi-go/gdi"
)

func main() {
	// A runtime with 4 simulated processes (the paper's compute servers).
	rt := gdi.Init(4)
	defer rt.Finalize()
	db := rt.CreateDatabase(gdi.DatabaseParams{})

	// Metadata is collective and replicated: labels and property types.
	person, err := db.DefineLabel("Person")
	if err != nil {
		log.Fatal(err)
	}
	knows, err := db.DefineLabel("KNOWS")
	if err != nil {
		log.Fatal(err)
	}
	name, err := db.DefinePType("name", gdi.PTypeSpec{Datatype: gdi.TypeString})
	if err != nil {
		log.Fatal(err)
	}

	// SPMD phase: every process creates one Person and links it to the next
	// process's person, each inside a local ACID transaction.
	rt.Run(db, func(p *gdi.Process) {
		tx := p.StartTransaction(gdi.ReadWrite)
		me := uint64(p.Rank())
		id, err := tx.CreateVertex(me)
		if err != nil {
			log.Fatal(err)
		}
		h, err := tx.AssociateVertex(id)
		if err != nil {
			log.Fatal(err)
		}
		if err := h.AddLabel(person); err != nil {
			log.Fatal(err)
		}
		if err := h.SetProperty(name, gdi.StringValue(fmt.Sprintf("person-%d", me))); err != nil {
			log.Fatal(err)
		}
		if err := tx.Commit(); err != nil {
			log.Fatal(err)
		}
		p.Barrier() // everyone committed their vertex

		// Second transaction: befriend the next person (a remote vertex).
		// Neighboring processes write the same vertices concurrently, so any
		// step — the commit above all, which validates what was read — may
		// fail with ErrTransactionCritical. GDI offers no in-place retry (§3.3); the
		// caller aborts and starts a new transaction.
		for {
			tx = p.StartTransaction(gdi.ReadWrite)
			err := befriend(tx, me, (me+1)%uint64(p.Size()), knows)
			if err == nil {
				err = tx.Commit()
			} else {
				tx.Abort()
			}
			if err == nil {
				break
			}
			if !errors.Is(err, gdi.ErrTransactionCritical) {
				log.Fatal(err)
			}
		}
	})

	// Driver-side read: whom does person 0 know?
	p := db.Process(0)
	tx := p.StartTransaction(gdi.ReadOnly)
	defer tx.Abort()
	id, err := tx.TranslateVertexID(0)
	if err != nil {
		log.Fatal(err)
	}
	h, err := tx.AssociateVertex(id)
	if err != nil {
		log.Fatal(err)
	}
	neighbors, err := h.Neighbors(gdi.MaskOut, nil)
	if err != nil {
		log.Fatal(err)
	}
	// Batch-associate the whole neighborhood: one vectored fetch train per
	// owner rank instead of one blocking round-trip per neighbor.
	handles, err := tx.AssociateVertices(neighbors)
	if err != nil {
		log.Fatal(err)
	}
	for _, nh := range handles {
		if nh == nil {
			continue // concurrently deleted
		}
		v, _ := nh.Property(name)
		fmt.Printf("person-0 knows %s (in: %d, out: %d edges)\n",
			gdi.StringOf(v), nh.CountEdges(gdi.MaskIn), nh.CountEdges(gdi.MaskOut))
	}
	if err := tx.Commit(); err != nil {
		log.Fatal(err)
	}
	fmt.Printf("database holds %d vertices across %d processes\n", db.TotalVertices(), rt.Size())
}

// befriend links person a to person b with a KNOWS edge inside tx.
func befriend(tx *gdi.Transaction, a, b uint64, knows gdi.LabelID) error {
	from, err := tx.TranslateVertexID(a)
	if err != nil {
		return err
	}
	to, err := tx.TranslateVertexID(b)
	if err != nil {
		return err
	}
	_, err = tx.CreateEdge(from, to, gdi.DirOut, knows)
	return err
}
