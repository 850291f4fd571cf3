; A scriptable victim for `microscope lab` and cmd/mscan: a replay handle
; followed by a secret-dependent probe-line access (the quickstart attack,
; in assembly). Lines starting with ';;' are layout directives; ';' starts
; a comment.
;
;; region handle 0x400000 rw
;; region probe  0x410000 rw
;; region secret 0x420000 rw
;; init secret+0 3
;; symbol hotline probe+192
;; secret secret

        movi r1, 0x400000      ; &handle
        movi r2, 0x410000      ; probe base
        movi r3, 0x420000      ; &secret
        ld   r4, 0(r3)         ; secret value (3)
        ld   r5, 0(r1)         ; REPLAY HANDLE
        shli r6, r4, 6         ; secret -> line offset
        add  r6, r6, r2
        ld   r7, 0(r6)         ; transmit: touches probe line <secret>
        halt
