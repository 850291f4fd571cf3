package main

// README's first command, `go run ./examples/quickstart`, prints this.
func Example() {
	main()
	// Output:
	// replay 1: line0 hot=false line1 hot=true
	//
	// victim finished: true (one logical run, 1 replays)
	// secret bit: 1, recovered: 1
}
