package c

var alsoBroken = undefinedName
