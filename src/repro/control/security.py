"""Control-plane access control — paper §IV-C.

"An access control system ensures that only users with enough
privileges can act on the system status" and "trusted node agents and
network elements firmware accept configuration updates only from a
trusted control plane."

Tokens are opaque strings mapped to roles; roles map to permission
sets. The orchestrator additionally signs its agent-bound
configurations with a plane secret agents verify.
"""

from __future__ import annotations

import enum
import hashlib
import hmac
import secrets
from dataclasses import dataclass
from typing import Dict, FrozenSet, Optional

from ..errors import ReproError

__all__ = ["Role", "Permission", "AccessControl", "AuthError", "PlaneTrust"]


class AuthError(ReproError, PermissionError):
    """Missing, unknown or under-privileged credential."""

    code = "auth/denied"


class Permission(enum.Enum):
    READ_STATE = "read_state"
    ATTACH = "attach"
    DETACH = "detach"
    ADMIN = "admin"


class Role(enum.Enum):
    VIEWER = "viewer"
    OPERATOR = "operator"
    ADMIN = "admin"


_ROLE_PERMISSIONS: Dict[Role, FrozenSet[Permission]] = {
    Role.VIEWER: frozenset({Permission.READ_STATE}),
    Role.OPERATOR: frozenset(
        {Permission.READ_STATE, Permission.ATTACH, Permission.DETACH}
    ),
    Role.ADMIN: frozenset(set(Permission)),
}


class AccessControl:
    """Token → role registry with permission checks."""

    def __init__(self):
        self._tokens: Dict[str, Role] = {}

    def issue_token(self, role: Role) -> str:
        token = secrets.token_hex(16)
        self._tokens[token] = role
        return token

    def register_token(self, token: str, role: Role) -> None:
        """Install a pre-agreed token (deterministic test setups)."""
        self._tokens[token] = role

    def revoke(self, token: str) -> None:
        self._tokens.pop(token, None)

    def role_of(self, token: Optional[str]) -> Role:
        if token is None or token not in self._tokens:
            raise AuthError("missing or unknown token")
        return self._tokens[token]

    def require(self, token: Optional[str], permission: Permission) -> Role:
        role = self.role_of(token)
        if permission not in _ROLE_PERMISSIONS[role]:
            raise AuthError(
                f"role {role.value!r} lacks permission {permission.value!r}"
            )
        return role


@dataclass
class PlaneTrust:
    """HMAC trust anchor between the control plane and node agents.

    Agents "accept configuration updates only from a trusted control
    plane": the plane signs each configuration blob; agents verify
    before applying.
    """

    secret: bytes

    @classmethod
    def generate(cls) -> "PlaneTrust":
        return cls(secret=secrets.token_bytes(32))

    def sign(self, payload: bytes) -> str:
        return hmac.new(self.secret, payload, hashlib.sha256).hexdigest()

    def verify(self, payload: bytes, signature: str) -> bool:
        expected = self.sign(payload)
        return hmac.compare_digest(expected, signature)
