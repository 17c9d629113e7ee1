/* Unsequenced stores to *distinct* objects: C leaves the evaluation
 * order open, but every order reaches the same state.  The static
 * footprint analysis proves the two sides commute, so
 * `cerberus-py --exhaustive --static-prune` runs exactly one path where
 * plain enumeration walks hundreds of interleavings — and the linter
 * stays silent, because there is no conflict to report. */
int a, b;

int main(void) {
    (a = 1) + (b = 2);
    return a + b - 3;
}
