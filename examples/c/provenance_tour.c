/* A well-defined tour of the pointer-provenance questions: adjacent
 * objects, one-past pointers, and round-trips through (char *) — all
 * behaviour every memory object model agrees on.  `cerberus-py lint`
 * reports nothing here; `cerberus-py --exhaustive` shows one behaviour
 * under every model. */
#include <stdio.h>

int x = 1, y = 2;

int main(void) {
    int *p = &x;
    char *bytes = (char *)p;          /* char access is always fine */
    int back = *(int *)bytes;         /* round-trip keeps provenance */
    int *q = &y;
    if (p == q)                       /* distinct objects: unequal */
        return 1;
    printf("%d %d\n", back, y);
    return 0;
}
