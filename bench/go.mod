module github.com/clamshell/clamshell/bench

go 1.22

require github.com/clamshell/clamshell v0.0.0

replace github.com/clamshell/clamshell => ../
