"""--config files: JSON defaults for a subcommand's flags, imported only by runs given one."""

import argparse
import json


def apply_config(sp, config_path):
    """Make the file's values defaults of subparser ``sp``; a flag given one is no longer required.

    Returns exclusive-group members' values as (group, dest, value): each
    applies only when the command line gives no member of its group.
    """
    with open(config_path, "r", encoding="utf-8") as f:
        try:
            config = json.load(f)
        except ValueError as exc:  # bad JSON, or bytes that are not UTF-8
            raise ValueError(f"--config {config_path}: invalid JSON: {exc}") from None
    if not isinstance(config, dict):
        raise ValueError(f"--config {config_path}: expected a JSON object")
    actions = {a.dest: a for a in sp._actions}
    defaults = {}
    for key, value in config.items():
        dest = key.replace("-", "_")
        if dest not in actions:
            raise ValueError(f"--config {config_path}: unknown key {key!r}")
        # argparse converts only string defaults and checks no default against
        # its choices, so the value goes through the flag's own type and choices.
        action = actions[dest]
        switch = isinstance(action, argparse._StoreTrueAction)
        if isinstance(value, bool) != switch or not isinstance(value, (str, int)):
            expected = "true or false" if switch else "a string or an integer"
            raise ValueError(f"--config {config_path}: key {key!r}: expected {expected}, got {json.dumps(value)}")
        if not switch:
            try:
                value = sp._get_value(action, str(value))
                sp._check_value(action, value)
            except argparse.ArgumentError as exc:
                raise ValueError(f"--config {config_path}: key {key!r}: {exc.message}") from None
        defaults[dest] = value
        action.required = False
    group_defaults = []
    for group in sp._mutually_exclusive_groups:
        given = [a.dest for a in group._group_actions if a.dest in defaults]
        if len(given) > 1:
            raise ValueError(f"--config {config_path}: {' and '.join(given)} exclude each other")
        if given:
            group.required = False
            group_defaults.append((group, given[0], defaults.pop(given[0])))
    sp.set_defaults(**defaults)
    return group_defaults
