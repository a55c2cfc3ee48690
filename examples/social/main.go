// Social is the interactive OLTP query of the paper's Listing 1: retrieve
// the first and last names of everyone a given person is friends with —
// fetch the person's edges, keep the FRIEND_OF ones, and read the
// neighbors' name properties, all within one local transaction.
package main

import (
	"fmt"
	"log"

	gdi "github.com/gdi-go/gdi"
)

// seed data: (appID, first, last) plus friendships.
var people = []struct {
	id          uint64
	first, last string
}{
	{1, "Ada", "Lovelace"},
	{2, "Alan", "Turing"},
	{3, "Grace", "Hopper"},
	{4, "Edsger", "Dijkstra"},
	{5, "Barbara", "Liskov"},
}

var friendships = [][2]uint64{{1, 2}, {1, 3}, {2, 4}, {3, 5}, {1, 5}}

func main() {
	rt := gdi.Init(2)
	defer rt.Finalize()
	db := rt.CreateDatabase(gdi.DatabaseParams{})

	personLbl, _ := db.DefineLabel("Person")
	friendOf, _ := db.DefineLabel("FRIEND_OF")
	colleague, _ := db.DefineLabel("COLLEAGUE")
	fName, _ := db.DefinePType("fname", gdi.PTypeSpec{Datatype: gdi.TypeString})
	lName, _ := db.DefinePType("lname", gdi.PTypeSpec{Datatype: gdi.TypeString})

	// Load the social graph in one write transaction.
	p := db.Process(0)
	tx := p.StartTransaction(gdi.ReadWrite)
	for _, pr := range people {
		id, err := tx.CreateVertex(pr.id)
		if err != nil {
			log.Fatal(err)
		}
		h, _ := tx.AssociateVertex(id)
		h.AddLabel(personLbl)
		h.SetProperty(fName, gdi.StringValue(pr.first))
		h.SetProperty(lName, gdi.StringValue(pr.last))
	}
	for _, f := range friendships {
		a, _ := tx.TranslateVertexID(f[0])
		b, _ := tx.TranslateVertexID(f[1])
		if _, err := tx.CreateEdge(a, b, gdi.DirUndirected, friendOf); err != nil {
			log.Fatal(err)
		}
	}
	// One non-friend relation to show the label filter doing work.
	a, _ := tx.TranslateVertexID(2)
	b, _ := tx.TranslateVertexID(3)
	tx.CreateEdge(a, b, gdi.DirUndirected, colleague)
	if err := tx.Commit(); err != nil {
		log.Fatal(err)
	}

	// Listing 1: friends of person 1. Start a transaction, translate the
	// application-level ID, associate, iterate edges, filter on the
	// FRIEND_OF label, and fetch each neighbor's names.
	tx = p.StartTransaction(gdi.ReadOnly)
	defer tx.Abort()
	vID, err := tx.TranslateVertexID(1)
	if err != nil {
		log.Fatal(err)
	}
	vH, err := tx.AssociateVertex(vID)
	if err != nil {
		log.Fatal(err)
	}
	edges, err := vH.Edges(gdi.MaskUndirected, nil)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println("friends of Ada Lovelace:")
	// Issue one non-blocking association per friend, then wait: the fetches
	// are flushed together as batched one-sided reads on the first Wait.
	var futures []*gdi.VertexFuture
	for i := range edges.Len() {
		e := edges.At(i)
		if e.Label != friendOf {
			continue // not a friendship edge
		}
		futures = append(futures, tx.AssociateVertexAsync(e.Neighbor))
	}
	for _, fut := range futures {
		nH, err := fut.Wait()
		if err != nil {
			log.Fatal(err)
		}
		fn, _ := nH.Property(fName)
		ln, _ := nH.Property(lName)
		fmt.Printf("  %s %s\n", gdi.StringOf(fn), gdi.StringOf(ln))
	}
	if err := tx.Commit(); err != nil {
		log.Fatal(err)
	}
}
