! private: each J iteration fills the scratch array W, which the
! compiler privatizes: every parallel iteration gets its own overlay
! frame. Deck: A0 (seeded).
PROGRAM PRIVAT
  PARAMETER (M = 2000, K = 8)
  REAL A(K, M), W(K), R(M), S
  INTEGER I, J, A0
  READ *, A0
  DO J = 1, M
    DO I = 1, K
      A(I, J) = MOD(I * 31 + J * A0, 113) * 0.05
    END DO
  END DO
  DO J = 1, M
    DO I = 1, K
      W(I) = A(I, J) * A(I, J) + 1.0
    END DO
    R(J) = 0.0
    DO I = 1, K
      R(J) = R(J) + W(I) * I
    END DO
  END DO
  S = 0.0
  DO J = 1, M
    S = S + R(J)
  END DO
  PRINT *, S, R(1), R(M)
END
