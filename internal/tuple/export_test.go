package tuple

// RadixMin is the batch size from which Sorter.Order sorts by radix.
const RadixMin = radixMin
